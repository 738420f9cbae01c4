"""Percolation of clouds of random states in Hilbert space.

Draw M Haar-random states, compute all pairwise Fubini-Study distances,
and join pairs closer than a threshold into single-linkage clusters.  A
cluster alpha with maximal internal span L_alpha counts as spanning at
threshold w when pi/2 - L_alpha <= w, the same success margin the walk
uses with epsilon tied to the stride.  The critical threshold of a cloud
is the smallest pairwise distance at which some cluster spans; sweeping
edges in ascending order finds it in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._checks import count
from ._seeds import as_seedseq, spawn
from .hilbert import HALF_PI, StateVector, _haar_rows

__all__ = [
    "InsufficientPointsError",
    "ExperimentFailureError",
    "UnionFind",
    "DistanceMatrix",
    "ClusterSet",
    "PercolationResult",
    "pairwise_distances",
    "random_cloud",
    "build_clusters",
    "critical_threshold",
    "critical_threshold_sample",
    "critical_threshold_experiment",
]


class InsufficientPointsError(ValueError):
    """A distance matrix needs at least two states."""


class ExperimentFailureError(RuntimeError):
    """Every sample of an experiment failed to produce a threshold."""

    def __init__(self, message: str, none_rate: float = 1.0):
        super().__init__(message)
        self.none_rate = none_rate


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int64)

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return int(root)

    def union(self, i: int, j: int) -> int:
        """Merge the sets containing i and j; return the surviving root."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return ri
        if self.rank[ri] < self.rank[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if self.rank[ri] == self.rank[rj]:
            self.rank[ri] += 1
        return ri


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric matrix of pairwise Fubini-Study distances."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.array_equal(v, v.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diagonal(v) != 0.0):
            raise ValueError("distance matrix must have a zero diagonal")
        if np.any(v < 0.0) or np.any(v > HALF_PI + 1e-12):
            raise ValueError("distances must lie in [0, pi/2]")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


def pairwise_distances(states: Sequence[StateVector]) -> DistanceMatrix:
    """Distance matrix of a cloud of states (at least two, equal dims).

    Computed from the Gram matrix in one shot; the upper triangle is
    mirrored so the result is exactly symmetric with an exactly zero
    diagonal.
    """
    _check_points(len(states))
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise ValueError(f"states must share one dimension, got {sorted(dims)}")
    return DistanceMatrix(_distances(np.stack([s.amplitudes for s in states])))


def _check_points(n_points: int) -> None:
    if n_points < 2:
        raise InsufficientPointsError(f"need at least 2 states, got {n_points}")


def _distances(a: np.ndarray) -> np.ndarray:
    """Distance matrix of the unit rows of ``a`` (see pairwise_distances)."""
    gram = a @ a.conj().T
    d = np.arccos(np.minimum(np.abs(gram), 1.0))
    d = np.triu(d, 1)
    return d + d.T


def random_cloud(dim: int, n_points: int, rng: np.random.Generator) -> list[StateVector]:
    """Draw ``n_points`` independent Haar states of dimension ``dim``.

    One block draw through the sampler behind
    :func:`qspan.hilbert.random_state`: the states equal, bit for bit,
    those of ``n_points`` sequential ``random_state`` calls on ``rng``.
    Counts must be integers (numpy ones included); anything else is a
    ``ValueError``.
    """
    dim, n_points = count(dim, "dim"), count(n_points, "n_points")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return [StateVector(row) for row in _haar_rows(dim, n_points, rng)]


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """Single-linkage clusters of a cloud at a fixed threshold.

    ``parent``/``rank`` are the union-find arrays (parents fully
    resolved to roots), ``members`` maps each root to its sorted member
    tuple, and ``max_span`` to the largest pairwise distance inside the
    cluster (0 for singletons).
    """

    parent: np.ndarray
    rank: np.ndarray
    members: dict
    max_span: dict
    threshold: float

    def __post_init__(self) -> None:
        for name in ("parent", "rank"):
            a = np.asarray(getattr(self, name)).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_clusters(self) -> int:
        return len(self.members)

    def spans_maximally(self, epsilon: float) -> bool:
        """Whether some cluster's span is within ``epsilon`` of pi/2."""
        return any(HALF_PI - l <= epsilon for l in self.max_span.values())


def build_clusters(dist: DistanceMatrix, threshold: float) -> ClusterSet:
    """Join all pairs with distance <= threshold (inclusive)."""
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    m = dist.n_points
    d = dist.values
    uf = UnionFind(m)
    iu, ju = np.nonzero(np.triu(d <= threshold, 1))
    for i, j in zip(iu.tolist(), ju.tolist()):
        uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(uf.find(i), []).append(i)
    members = {root: tuple(sorted(g)) for root, g in groups.items()}
    max_span = {
        root: float(d[np.ix_(g, g)].max()) if len(g) > 1 else 0.0
        for root, g in members.items()
    }
    return ClusterSet(
        parent=uf.parent,
        rank=uf.rank,
        members=members,
        max_span=max_span,
        threshold=float(threshold),
    )


def critical_threshold(dist: DistanceMatrix) -> Optional[float]:
    """Smallest edge weight at which some cluster spans maximally.

    Sweeps the pairwise distances in ascending order, merging clusters as
    edges arrive and maintaining the largest cluster span L_max seen so
    far.  After every edge -- merging or not, since a non-merging edge
    still raises the inspected weight w -- the rule

        pi/2 - L_max <= w

    is tested, and the first edge weight satisfying it is returned.
    L_max never decreases along the sweep, so that first weight is the
    minimum over all edge weights.  Returns None when the rule never
    holds, i.e. even one single cluster of all points spans too little.

    Ties may arrive in any order: once every edge of weight at most w
    has arrived, the clusters, and so L_max, do not depend on it.  The
    sort is stable, so ties keep the row-major (i, j) order of the upper
    triangle.

    Only edges with pi/2 - w > w (w below about pi/4) are sorted and
    swept.  Once an edge of weight w has arrived its ends share a
    cluster, so L_max >= w and the rule holds at any edge with
    pi/2 - w <= w.  A sweep of the short edges that ends without the
    rule holding thus returns the smallest long weight.  Two Haar states
    lie closer than pi/4 with probability 2^-(D-1), so a cloud sample at
    D >= 128 sorts nothing.
    """
    return _threshold(dist.values)


def _threshold(d: np.ndarray) -> Optional[float]:
    """critical_threshold on a plain symmetric distance array."""
    m = d.shape[0]
    iu, ju = np.triu_indices(m, 1)
    w = d[iu, ju]
    gap = HALF_PI - w
    short = np.flatnonzero(gap > w)
    order = short[np.argsort(w[short], kind="stable")]
    uf = UnionFind(m)
    members: list[Optional[list[int]]] = [[i] for i in range(m)]
    spans = np.zeros(m)
    l_max = 0.0
    for k in order.tolist():
        weight = float(w[k])
        ri = uf.find(int(iu[k]))
        rj = uf.find(int(ju[k]))
        if ri != rj:
            a, b = members[ri], members[rj]
            cross = float(d[np.ix_(a, b)].max())
            root = uf.union(ri, rj)
            other = rj if root == ri else ri
            spans[root] = max(spans[ri], spans[rj], cross)
            members[root] = a + b
            members[other] = None
            l_max = max(l_max, float(spans[root]))
        if HALF_PI - l_max <= weight:
            return weight
    long = w[gap <= w]
    return float(long.min()) if long.size else None


def critical_threshold_sample(qubits: int, n_points: int, sample_seed) -> Optional[float]:
    """Critical threshold of one freshly drawn cloud (None if it has none).

    Counts must be integers (numpy ones included); anything else is a
    ``ValueError``.
    """
    qubits, n_points = count(qubits, "qubits"), count(n_points, "n_points")
    if qubits < 1:
        raise ValueError(f"qubits must be >= 1, got {qubits}")
    _check_points(n_points)
    rng = np.random.default_rng(as_seedseq(sample_seed))
    return _threshold(_distances(_haar_rows(2**qubits, n_points, rng)))


@dataclass(frozen=True, eq=False)
class PercolationResult:
    """Per-sample critical thresholds of repeated cloud draws.

    ``values`` holds NaN where a sample produced no threshold; the mean
    and standard error are over the remaining samples.
    """

    values: np.ndarray
    none_mask: np.ndarray
    mean: float
    std_error: float
    none_rate: float

    def __post_init__(self) -> None:
        for name in ("values", "none_mask"):
            a = np.asarray(getattr(self, name)).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


def critical_threshold_experiment(
    qubits: int, n_points: int, samples: int, seed
) -> PercolationResult:
    """Mean critical threshold over independently drawn clouds.

    Per-sample substreams are spawned from ``seed`` so results do not
    depend on how the samples are scheduled.  Raises
    :class:`ExperimentFailureError` when every sample comes back without
    a threshold.  Counts are checked as by
    :func:`critical_threshold_sample`.
    """
    if count(samples, "samples") < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    raw = [
        critical_threshold_sample(qubits, n_points, ss)
        for ss in spawn(seed, samples)
    ]
    none_mask = np.array([v is None for v in raw])
    values = np.array([math.nan if v is None else v for v in raw])
    kept = values[~none_mask]
    none_rate = float(none_mask.mean())
    if kept.size == 0:
        raise ExperimentFailureError(
            f"no sample of {samples} produced a critical threshold",
            none_rate=none_rate,
        )
    mean = float(kept.mean())
    std_error = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    return PercolationResult(
        values=values,
        none_mask=none_mask,
        mean=mean,
        std_error=std_error,
        none_rate=none_rate,
    )
