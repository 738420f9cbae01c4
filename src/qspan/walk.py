"""Fixed-stride random walks on the space of pure states.

A walk starts from a Haar-random state of dimension D = 2**qubits and
takes ``steps`` tangent steps of fixed Fubini-Study length ``delta_s``,
each along a fresh random direction, uniform with respect to the local
metric.  After every step the span

    L_t = fs_distance(walker, start)

is recorded.  The walk has reached the far edge when its final span
comes within ``epsilon`` of the maximal distance pi/2.

Without an explicit ``epsilon`` the margin is the paper's, tied to the
dimension: epsilon = pi/2 - arccos(1/sqrt(D)), i.e. the walker only has
to get as far from the start as a typical independent random state
would already be.

The per-trial critical stride is the smallest delta_s at which a walk
from the trial's initial state reaches the far edge, located by probing
an ascending stride grid with fresh step directions per probe; see
:func:`critical_step_for_trial`.

Both :func:`run_walk` (the validated public walk) and the probe scan
run one private kernel on raw arrays, which walks a batch of K walkers
in lockstep.  Its chart steps call the raw-array chart kernel that
``to_coords``, ``state_from_angles`` and ``fs_distance`` of
:mod:`qspan.hilbert` wrap, so a walker's chart point, amplitudes and
span are those functions' results bit for bit.  Its tangent draw uses
the block structure of the metric to sample in O(D), with no
eigendecomposition (see :func:`_tangent`); its tests check the draw
against the metric ``metric_tensor`` returns, through the covariance
S S^T = g^-1 of its root S.  The scan draws the directions in the
order a probe-by-probe scan draws them, so its strides equal those of
a scan built from :func:`run_walk` bit for bit.  A draw that vanishes
on every active direction of a walker (probability ~0) is a zero step
for that walker.  The draw, the zero step and, with exact steps, the
root find define walk stream :data:`WALK_STREAM`, which a result's
metadata records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.optimize.elementwise import find_root

from ._checks import count, flag, real
from ._seeds import spawn
from .hilbert import HALF_PI, StateVector, fs_distance, random_state
from .hilbert import _amplitudes, _chart, _dots, _fs_distances, _sq_norms

__all__ = [
    "WalkConfig",
    "WalkRecord",
    "UnitaryProbe",
    "TrialCritical",
    "CriticalStepResult",
    "paper_epsilon",
    "run_walk",
    "critical_step_for_trial",
    "critical_step_length",
    "dimension_factor",
    "heuristic_span",
    "heuristic_critical_step",
    "unitary_span",
]

#: Default relative width (in units of pi/2) to which the per-trial
#: critical stride is bracketed.
BRACKET_REL_WIDTH = 1e-3

#: Version of the random stream walks draw their directions from, one
#: number for default and exact-step walks: a change that would give
#: other rows for some (seed, config) pair in either mode bumps it.
#: Result files that do not record it are stream 1; the README lists
#: what each stream changed.
WALK_STREAM = 4

#: Probes the scan walks in lockstep per batch, with or without exact
#: steps.  A lockstep step costs some thirty small numpy calls whatever
#: its row count, and that call overhead outweighs the probes walked
#: past a trial's success: on the acceptance grid, where trials need
#: from 4 to about 270 probes (median about 80), fixed blocks of 64 ran
#: about 2.2x faster than batches doubling 1, 2, 4, ... up to 32.  Blocks
#: of 96 ran alike, 128 alike or slower and 256 slower, so 64, the
#: smallest of the fast sizes, keeps the block of normals and the memory
#: guard's estimate smallest.  An exact step's bracket scan and root
#: find cost far more per call than per row, so exact scans gain the
#: most: on 48 exact-step trials (qubits 1, 2 x steps 3, 10), blocks of
#: 8, 16, 32 and 64 ran 1.4x, 1.9x, 3.8x and 6.2x faster than the scalar
#: brentq scan they replaced, which walked one probe at a time; 96 and
#: 128 ran within the noise of 64.
_PROBE_BLOCK = 64
#: Ray scales the exact-step bracket scan evaluates per row and call.
_SCAN_CHUNK = 8


def paper_epsilon(qubits: int) -> float:
    """Success margin at which a typical random state already counts as far.

    Two independent Haar states of dimension D have root-mean-square
    overlap 1/sqrt(D), i.e. typical separation arccos(1/sqrt(D)); the
    margin is the gap between that and the maximum pi/2.  ``qubits``
    must be an integer (a numpy one included); anything else is a
    ``ValueError``.
    """
    qubits = count(qubits, "qubits")
    if qubits < 1:
        raise ValueError(f"qubits must be >= 1, got {qubits}")
    return float(HALF_PI - np.arccos(2.0 ** (-qubits / 2.0)))


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of one walk.

    ``epsilon`` None is filled in with :func:`paper_epsilon` of the
    qubit count; an explicit margin must lie in (0, pi/2].  With
    ``exact_step`` the raw tangent displacement is rescaled by a root
    find so each realized step distance equals delta_s to relative 1e-6,
    instead of only to first order.  Counts must be integers, the
    stride and margin real numbers and ``exact_step`` a bool (numpy
    scalars included, stored as plain Python ones); anything else is a
    ``ValueError``.
    """

    qubits: int
    steps: int
    delta_s: float
    epsilon: float | None = None
    exact_step: bool = False

    def __post_init__(self) -> None:
        for name in ("qubits", "steps"):
            object.__setattr__(self, name, count(getattr(self, name), name))
        object.__setattr__(self, "delta_s", real(self.delta_s, "delta_s"))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", real(self.epsilon, "epsilon"))
        object.__setattr__(self, "exact_step", flag(self.exact_step, "exact_step"))
        if self.qubits < 1:
            raise ValueError(f"qubits must be >= 1, got {self.qubits}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.delta_s <= HALF_PI:
            raise ValueError(f"delta_s must lie in (0, pi/2], got {self.delta_s}")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", paper_epsilon(self.qubits))
        elif not 0.0 < self.epsilon <= HALF_PI:
            raise ValueError(f"epsilon must lie in (0, pi/2], got {self.epsilon}")

    @property
    def dim(self) -> int:
        return 2**self.qubits


@dataclass(frozen=True, eq=False)
class WalkRecord:
    """Spans L_0 .. L_M of one walk and its success flag."""

    spans: np.ndarray
    reached: bool

    def __post_init__(self) -> None:
        spans = np.asarray(self.spans, dtype=np.float64).copy()
        spans.flags.writeable = False
        object.__setattr__(self, "spans", spans)

    @property
    def final_span(self) -> float:
        return float(self.spans[-1])


def run_walk(
    initial: StateVector, config: WalkConfig, rng: np.random.Generator
) -> WalkRecord:
    """Walk ``config.steps`` strides from ``initial`` and record spans.

    Each step: express the walker in chart coordinates, draw a random
    tangent displacement of metric length delta_s, displace the angles,
    and renormalize.  spans[0] is 0 and spans[t] the Fubini-Study
    distance of the walker after t steps back to the start.  The steps
    run on the probe scan's kernel, one walker at a time, drawing 2(D-1)
    normals per step from ``rng``; should they vanish on every active
    direction the step is a zero step.  Given the same initial state and
    generator state the record is reproduced bit for bit.
    """
    if initial.dim != config.dim:
        raise ValueError(
            f"initial state dimension {initial.dim} does not match config ({config.dim})"
        )
    a = initial.amplitudes
    p = 2 * (a.size - 1)
    stride = np.array([config.delta_s])
    spans = np.zeros(config.steps + 1)
    amps = a[None]
    for t in range(1, config.steps + 1):
        amps = _lockstep(amps[0], stride, rng.standard_normal((1, 1, p)), config.exact_step)
        spans[t] = _fs_distances(a, amps)[0]
    reached = (HALF_PI - spans[-1]) <= config.epsilon
    return WalkRecord(spans=spans, reached=bool(reached))


def _exact_stride(
    a: np.ndarray, theta: np.ndarray, d_theta: np.ndarray, strides: np.ndarray
) -> np.ndarray:
    """Rescale each row's displacement so its realized distance equals its stride.

    Row k scans outward along the ray theta_k + c * d_theta_k, c = 0.25,
    0.5, ..., until the realized distance from its own amplitudes a_k
    crosses strides_k.  The scan evaluates ``_SCAN_CHUNK`` scales per row
    and call, stacked over the rows that have not crossed yet.  One
    ``find_root`` call then settles the crossing of every bracketed row
    to within 1e-12 + 1e-14 c; a scale that lands on the stride exactly
    is kept as is.  Strides near pi/2 may not be realizable along a given
    ray at all; such a row falls back, on its own, to the scale that
    maximizes its realized distance.  Every operation acts on each row
    alone, so a row's step does not depend on the rows beside it.
    Returns the (K, D) amplitudes of the new points.
    """

    def moved(c, rows) -> np.ndarray:
        return _amplitudes(theta[rows] + c[:, None] * d_theta[rows])

    def realized(c, rows) -> np.ndarray:
        return _fs_distances(a[rows], moved(c, rows))

    def excess(c, rows) -> np.ndarray:
        return realized(c, rows) - strides[rows]

    scales = np.arange(0.25, 64.25, 0.25)
    lo, hi = np.zeros(strides.size), np.zeros(strides.size)
    at_hi = np.full(strides.size, np.nan)
    rows = np.arange(strides.size)
    for start in range(0, scales.size, _SCAN_CHUNK):
        if not rows.size:
            break
        chunk = scales[start:start + _SCAN_CHUNK]
        at = excess(np.tile(chunk, rows.size), np.repeat(rows, chunk.size))
        at = at.reshape(rows.size, chunk.size)
        crossed = at >= 0.0
        hit = crossed.any(axis=1)
        i = crossed.argmax(axis=1)[hit]
        done = rows[hit]
        hi[done], at_hi[done] = chunk[i], at[hit, i]
        lo[done] = np.where(i > 0, chunk[i - 1], lo[done])
        rows = rows[~hit]
        lo[rows] = chunk[-1]
    c = hi
    root = np.flatnonzero(at_hi > 0.0)
    if root.size:
        c[root] = find_root(
            excess, (lo[root], hi[root]), args=(root,),
            tolerances=dict(xatol=1e-12, xrtol=1e-14),
        ).x
    for k in rows:
        one = np.array([k])
        c[k] = minimize_scalar(
            lambda x: -realized(np.array([x]), one)[0], bounds=(0.0, 64.0),
            method="bounded", options={"xatol": 1e-9},
        ).x
    return moved(c, slice(None))


# --- walk kernel -------------------------------------------------------------
#
# Tangent draws and lockstep batches on the chart kernel of qspan.hilbert.
# As there, every operation acts on each row alone.


def _tangent(m, tail, strides, xi):
    """Chart displacements of metric length ``strides`` along the normals ``xi``.

    In the notation of :func:`qspan.hilbert.metric_tensor` the magnitude
    block is diag(P) with P_k = t_k**2, and the phase block is
    A = diag(v) - v v^T with v = m**2 over the first D - 1 moduli.  With
    m_D the last modulus, 1 - sum(v) = m_D**2 and Sherman-Morrison gives
    A^-1 = diag(1/v) + 1 1^T / m_D**2 = S S^T for

        S = diag(1/sqrt(v)) + 1 sqrt(v)^T / (m_D (1 + m_D)),

    so with u = xi / |xi| the displacement

        d_theta = stride * (u_mag / t, S u_ph)

    has d_theta^T g d_theta = stride**2 exactly.  It is stride * R u for
    the root R = diag(1/t) + S of g (block sum), with R R^T = g^-1 where
    g is invertible, so a u uniform on the unit sphere of R^p gives
    d_theta the covariance stride**2 g^-1 / p: steps uniform with
    respect to the metric, at O(D) cost and with no eigendecomposition.
    Directions with P_k = 0 or v_d = 0 carry no metric length and get
    no share of xi.  Where m_D = 0, A is singular along the global
    phase; u_ph then comes from the projection (I - sqrt(v) sqrt(v)^T)
    xi_ph, for which d_ph = stride * u_ph / sqrt(v) has the same metric
    length.  A row whose masked draw vanishes gets a zero displacement.
    """
    n = m.shape[1] - 1
    root_p, root_v, last = tail[:, :n], m[:, :n], m[:, n:]
    xi = np.where(np.concatenate((root_p, root_v), axis=1) > 0.0, xi, 0.0)
    edge = last == 0.0
    if edge.any():
        ph = xi[:, n:]
        xi[:, n:] = np.where(edge, ph - root_v * _dots(root_v, ph)[:, None], ph)
    d = strides[:, None] * _unit_rows(xi)
    d_ph = d[:, n:]
    safe_last = np.where(edge, 1.0, last)
    shift = np.where(edge, 0.0, _dots(root_v, d_ph)[:, None] / (safe_last * (1.0 + safe_last)))
    return np.concatenate(
        (
            d[:, :n] / np.where(root_p > 0.0, root_p, 1.0),
            d_ph / np.where(root_v > 0.0, root_v, 1.0) + shift,
        ),
        axis=1,
    )


def _unit_rows(u: np.ndarray) -> np.ndarray:
    """Rows of ``u`` scaled to unit length; an all-zero row stays zero."""
    norm = np.sqrt(_sq_norms(u))
    if not norm.all():
        norm[norm == 0.0] = 1.0
    return u / norm[:, None]


def _lockstep(a, strides, normals, exact_step):
    """Amplitudes of walks from ``a``, one per stride, after their steps.

    ``normals`` is a (K, steps, 2(D - 1)) block of standard normals, row
    k's step t drawn from ``normals[k, t]``.  With ``exact_step`` every
    step of the batch goes through one :func:`_exact_stride` call.
    """
    amps = np.broadcast_to(a, (strides.size, a.size))
    for t in range(normals.shape[1]):
        theta, m, tail = _chart(amps)
        d_theta = _tangent(m, tail, strides, normals[:, t])
        if exact_step:
            amps = _exact_stride(amps, theta, d_theta, strides)
        else:
            amps = _amplitudes(theta + d_theta)
    return amps


def _probe_batch(a, strides, steps, exact_step, rng):
    """Final spans of the probes at ``strides``, in grid order.

    The batch draws all its normals at once as a (K, steps, p) block,
    the same variates K * steps sequential draws of p give, so each probe
    walks the steps :func:`run_walk` would walk from the same generator.
    """
    normals = rng.standard_normal((strides.size, steps, 2 * (a.size - 1)))
    return _fs_distances(a, _lockstep(a, strides, normals, exact_step))


@dataclass(frozen=True)
class TrialCritical:
    """Critical stride of a single trial."""

    value: float
    censored: bool


def critical_step_for_trial(
    qubits: int,
    steps: int,
    trial_seed,
    *,
    epsilon: float | None = None,
    exact_step: bool = False,
) -> TrialCritical:
    """Smallest stride at which this trial's walk reaches the far edge.

    The trial's substream is split once into an initial-state stream and
    a direction stream.  Candidate strides are scanned upward on an
    additive grid of step ``BRACKET_REL_WIDTH * pi/2`` starting at the
    triangle-inequality floor (pi/2 - epsilon) / steps, below which no
    walk of ``steps`` strides can reach the far edge.  Each probe runs a
    full walk drawing fresh directions from the trial's stream, and the
    first succeeding stride is returned; every returned value is thereby
    bracketed between the last failing probe and itself, a bracket of
    width at most BRACKET_REL_WIDTH * pi/2.  The top candidate is pi/2
    exactly; a trial that still fails there is censored: recorded at
    pi/2 and flagged, to be excluded from averages by the caller.

    Consecutive probes run in lockstep blocks of 64 walks
    (``_PROBE_BLOCK``) from the first probe on, with or without
    ``exact_step``; an exact step brackets and root-finds the whole block
    at once.  A block that contains a success ends the scan at its first
    success in grid order, and the probes after it are discarded.  The block draws
    its directions in probe order, so the result equals, bit for bit,
    that of a scan that walks each probe with :func:`run_walk` and stops
    at the first success.

    Results are reproducible bit for bit from (seed, qubit count, steps,
    stride grid): probe order is deterministic, and the direction stream
    is consumed sequentially across probes.  The arguments are checked
    through :class:`WalkConfig` before anything is drawn.
    """
    config = WalkConfig(
        qubits=qubits, steps=steps, delta_s=HALF_PI, epsilon=epsilon, exact_step=exact_step
    )
    floor = (HALF_PI - config.epsilon) / config.steps
    replace(config, delta_s=floor)  # the floor stride must be a valid stride
    grid = BRACKET_REL_WIDTH * HALF_PI
    strides = []
    s = floor
    while s < HALF_PI:
        strides.append(s)
        s += grid
    strides = np.array(strides + [HALF_PI])

    init_ss, dir_ss = spawn(trial_seed, 2)
    a = random_state(config.dim, np.random.default_rng(init_ss)).amplitudes
    rng = np.random.default_rng(dir_ss)
    for done in range(0, strides.size, _PROBE_BLOCK):
        batch = strides[done:done + _PROBE_BLOCK]
        final = _probe_batch(a, batch, config.steps, config.exact_step, rng)
        reached = np.flatnonzero(HALF_PI - final <= config.epsilon)
        if reached.size:
            return TrialCritical(value=float(batch[reached[0]]), censored=False)
    return TrialCritical(value=float(HALF_PI), censored=True)


@dataclass(frozen=True, eq=False)
class CriticalStepResult:
    """Per-trial critical strides with censoring information.

    ``mean`` and ``std_error`` are computed over uncensored trials only;
    censored trials sit in ``values`` at pi/2 with their flag set.  With
    every trial censored both statistics are NaN.
    """

    values: np.ndarray
    censored: np.ndarray
    mean: float
    std_error: float

    def __post_init__(self) -> None:
        for name in ("values", "censored"):
            a = np.asarray(getattr(self, name)).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]

    @property
    def censored_count(self) -> int:
        return int(np.count_nonzero(self.censored))


def critical_step_length(
    qubits: int,
    steps: int,
    trials: int,
    seed,
    *,
    epsilon: float | None = None,
    exact_step: bool = False,
) -> CriticalStepResult:
    """Mean critical stride over independent trials.

    ``seed`` may be an integer or a SeedSequence; per-trial substreams
    are spawned from it, so any scheduling of the trials (including
    none) yields identical results, trial by trial.
    """
    if count(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    outcomes = [
        critical_step_for_trial(qubits, steps, trial_ss, epsilon=epsilon, exact_step=exact_step)
        for trial_ss in spawn(seed, trials)
    ]
    values = np.array([t.value for t in outcomes])
    censored = np.array([t.censored for t in outcomes])
    kept = values[~censored]
    if kept.size > 0:
        mean = float(kept.mean())
        std_error = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    else:
        mean = math.nan
        std_error = math.nan
    return CriticalStepResult(values=values, censored=censored, mean=mean, std_error=std_error)


def dimension_factor(qubits: int) -> float:
    """Empirical reachable-fraction factor f = 10.5 * qubits**-1.5."""
    if qubits < 1:
        raise ValueError(f"qubits must be >= 1, got {qubits}")
    return 10.5 * qubits**-1.5


def heuristic_span(delta_s: float, steps: int, qubits: int) -> float:
    """Diffusive estimate (2/pi) * delta_s * sqrt(steps * f(qubits)).

    Normalized so that a span of 1 means the far edge pi/2; the factor
    f(qubits) shrinks the effective reachable volume as the register
    grows.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return (2.0 / np.pi) * delta_s * math.sqrt(steps * dimension_factor(qubits))


def heuristic_critical_step(steps: int, qubits: int) -> float:
    """Stride at which the heuristic span reaches the far edge.

    Inverts heuristic_span(...) == 1: delta_s = (pi/2) / sqrt(steps * f).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return HALF_PI / math.sqrt(steps * dimension_factor(qubits))


@dataclass(frozen=True, eq=False)
class UnitaryProbe:
    """A short burst of Hamiltonian evolutions applied in sequence.

    Each Hamiltonian acts for time ``dt`` (hbar = 1).  For small dt the
    Fubini-Study distance travelled from a state psi approaches
    dt * sigma, where sigma is the dispersion of the summed generator in
    psi; :func:`unitary_span` returns both sides of that comparison.
    """

    hamiltonians: tuple
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        hams = tuple(np.asarray(h, dtype=np.complex128) for h in self.hamiltonians)
        if not hams:
            raise ValueError("at least one Hamiltonian is required")
        d = hams[0].shape[0] if hams[0].ndim == 2 else 0
        frozen = []
        for h in hams:
            if h.ndim != 2 or h.shape != (d, d) or d == 0:
                raise ValueError("Hamiltonians must be square matrices of equal size")
            if not np.allclose(h, h.conj().T, atol=1e-12, rtol=0.0):
                raise ValueError("Hamiltonians must be Hermitian to 1e-12")
            h = h.copy()
            h.flags.writeable = False
            frozen.append(h)
        object.__setattr__(self, "hamiltonians", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.hamiltonians[0].shape[0]

    def generator_dispersion(self, psi: StateVector) -> float:
        """Dispersion sqrt(<H^2> - <H>^2) of the summed generator in psi."""
        if psi.dim != self.dim:
            raise ValueError(f"dimension mismatch: {psi.dim} != {self.dim}")
        total = sum(self.hamiltonians)
        hpsi = total @ psi.amplitudes
        e1 = float(np.vdot(psi.amplitudes, hpsi).real)
        e2 = float(np.vdot(hpsi, hpsi).real)
        return math.sqrt(max(e2 - e1 * e1, 0.0))


def _evolve(h: np.ndarray, dt: float, phi: np.ndarray) -> np.ndarray:
    # exp(-i dt H) phi through the eigendecomposition of Hermitian H
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * dt * w) * (v.conj().T @ phi))


def unitary_span(psi: StateVector, probe: UnitaryProbe) -> tuple[float, float]:
    """Span travelled under a probe, and its dispersion-based prediction.

    Applies exp(-i dt H_j) for each Hamiltonian in sequence and returns
    (realized Fubini-Study distance from psi, dt * dispersion of the
    summed generator in psi).  The two agree to first order in dt.
    """
    if psi.dim != probe.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} != {probe.dim}")
    phi = psi.amplitudes
    for h in probe.hamiltonians:
        phi = _evolve(h, probe.dt, phi)
    evolved = StateVector.from_array(phi)
    return fs_distance(psi, evolved), probe.dt * probe.generator_dispersion(psi)
