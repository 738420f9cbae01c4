"""Geometry of pure states in a finite-dimensional Hilbert space.

A normalized state of an N-qubit register is a unit vector in C^D with
D = 2**N.  Physically distinct states form the projective space obtained
by quotienting out normalization and global phase, and the natural
distance on that space is the Fubini-Study angle

    s(psi, phi) = arccos |<psi|phi>|,

ranging from 0 (same ray) to pi/2 (orthogonal rays).

This module provides the pieces the walk and percolation drivers are
built from: Haar-distributed random states, the Fubini-Study distance, a
real coordinate chart and the metric tensor in that chart.

The chart uses D - 1 magnitude angles followed by D - 1 phases, packed
into a single vector ``theta`` of length 2(D - 1).  Amplitudes are

    psi_d = exp(i phi_d) * cos(theta_d) * prod_{l < d} sin(theta_l)

for d = 0 .. D-2, while the last amplitude carries the full sine product
and no phase of its own; the global phase is fixed by making it real and
non-negative.

The public chart functions :func:`to_coords`, :func:`state_from_angles`
and :func:`fs_distance` wrap one private kernel on (K, D) arrays, the one
the walk steps with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import positive

__all__ = [
    "StateVector",
    "HypersphericalCoords",
    "random_state",
    "fs_distance",
    "to_coords",
    "from_coords",
    "state_from_angles",
    "metric_tensor",
]

HALF_PI = np.pi / 2

_NORM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector.

    The constructor validates rather than repairs: ``amplitudes`` must
    already be normalized to within 1e-12.  Use :meth:`from_array` to
    wrap a vector of arbitrary scale.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d array")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(
                f"state is not normalized: sum |a|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps.copy()))

    @classmethod
    def from_array(cls, values) -> "StateVector":
        """Normalize ``values`` and wrap the result as a state."""
        v = np.asarray(values, dtype=np.complex128)
        n = np.linalg.norm(v)
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(v / n)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class HypersphericalCoords:
    """Canonical chart point for a state of dimension ``dim``.

    ``theta`` holds the dim - 1 magnitude angles (each in [0, pi/2])
    followed by the dim - 1 phases (each in [0, 2 pi)).  Non-canonical
    angle vectors are still meaningful input to
    :func:`state_from_angles`; this type is reserved for the canonical
    representative produced by :func:`to_coords`.  ``dim`` must be an
    integer >= 1 (a numpy one included, stored as a plain int); anything
    else is a ``ValueError``.
    """

    theta: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", positive(self.dim, "dim"))
        theta = np.asarray(self.theta, dtype=np.float64)
        n = self.dim - 1
        if theta.shape != (2 * n,):
            raise ValueError(
                f"expected {2 * n} angles for dim {self.dim}, got {theta.shape}"
            )
        mag = theta[:n]
        ph = theta[n:]
        if np.any(mag < 0.0) or np.any(mag > HALF_PI):
            raise ValueError("magnitude angles must lie in [0, pi/2]")
        if np.any(ph < 0.0) or np.any(ph >= 2 * np.pi):
            raise ValueError("phase angles must lie in [0, 2 pi)")
        object.__setattr__(self, "theta", _readonly(theta.copy()))

    @property
    def magnitude_angles(self) -> np.ndarray:
        return self.theta[: self.dim - 1]

    @property
    def phase_angles(self) -> np.ndarray:
        return self.theta[self.dim - 1 :]


# --- chart kernel ------------------------------------------------------------
#
# The chart, its inverse and the Fubini-Study distance over a leading
# batch axis of K states.  Every operation acts on each row alone (row
# dot products go through matmul on (K, 1, n) @ (K, n, 1) stacks, one
# BLAS dot per row), so a row's bits do not depend on the batch it sits in.


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x . y of real (K, n) arrays."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Row-wise x . x of a real (K, n) array."""
    return _dots(x, x)


def _sine_prefix(theta: np.ndarray):
    """Signed sine prefixes and moduli of (K, 2n) angles, both (K, n + 1).

    prefix_k is the product of sin(theta_l) over the magnitude angles
    l < k, and the modulus prefix_k * cos(theta_k) (prefix_n for the last
    amplitude), before any phase or normalization.  For a unit vector
    |prefix_k| is the norm of the moduli from k on, the chart's tail norm.
    """
    k = theta.shape[0]
    mag = theta[:, :theta.shape[1] // 2]
    ones = np.ones((k, 1))
    prefix = np.cumprod(np.concatenate((ones, np.sin(mag)), axis=1), axis=1)
    return prefix, prefix * np.concatenate((np.cos(mag), ones), axis=1)


def _amplitudes(theta: np.ndarray) -> np.ndarray:
    """``state_from_angles`` on (K, 2n) angles: normalized (K, n + 1) amplitudes."""
    k, p = theta.shape
    _, moduli = _sine_prefix(theta)
    amps = moduli * np.exp(1j * np.concatenate((theta[:, p // 2:], np.zeros((k, 1))), axis=1))
    norm = np.sqrt(_sq_norms(amps.real) + _sq_norms(amps.imag))
    return amps / norm[:, None]


def _fs_distances(a: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``fs_distance`` from the amplitudes ``a`` to each row of ``amps``.

    ``a`` is one start for every row, or a (K, D) array of one start per row.
    """
    if a.shape[-1] == 1:
        # C^1 holds a single ray, so every distance is exactly 0.  The
        # product inner * a below would also run its loop along the batch
        # axis here, and numpy's complex multiply rounds a one-element
        # loop (scalar code) differently from a longer one (fused SIMD).
        return np.zeros(len(amps))
    # vecdot runs the BLAS dot of np.vdot on each row, so its bits are vdot's
    inner = np.vecdot(a, amps)
    ortho = amps - inner[:, None] * a
    return np.arctan2(np.sqrt(_sq_norms(ortho.real) + _sq_norms(ortho.imag)), np.abs(inner))


def _chart(amps: np.ndarray):
    """``to_coords`` on (K, D) amplitudes: angles, moduli m and tail norms t.

    m holds the moduli once the global phase is fixed, and t_k the norm
    of (m_k, ..., m_{D-1}); the metric at the angles is read off both.
    """
    last = amps[:, -1:]
    a = np.where(last != 0, amps * np.exp(-1j * np.angle(last)), amps)
    m = np.abs(a)
    tail = np.sqrt(np.cumsum((m * m)[:, ::-1], axis=1)[:, ::-1])
    mag = np.arctan2(tail[:, 1:], m[:, :-1])
    ph = np.where(m[:, :-1] == 0.0, 0.0, np.mod(np.angle(a[:, :-1]), 2 * np.pi))
    # mod can round a tiny negative angle up to exactly 2 pi
    ph[ph >= 2 * np.pi] = 0.0
    return np.concatenate((mag, ph), axis=1), m, tail


def _haar_rows(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Haar-distributed unit vectors of C^dim, as an (n, dim) array.

    One (n, 2*dim) block of standard normals; each row's consecutive
    pairs are the real and imaginary parts of its amplitudes.  A row's
    norm is its own dot product (the BLAS dot ``np.linalg.norm`` uses),
    so row k is bit for bit the state the k-th of n sequential
    :func:`random_state` calls would draw.  Scaling the real block by
    1/norm gives the bits of complex division by norm, since numpy
    divides by a divisor with zero imaginary part as re*(1/n), im*(1/n),
    and skips that division's complex arithmetic.
    """
    x = rng.standard_normal((n, 2 * dim))
    norm = np.sqrt(_sq_norms(x))
    return (x * (1 / norm)[:, None]).view(np.complex128)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Draw a Haar-distributed pure state of dimension ``dim``.

    2*dim i.i.d. standard normals are paired into complex amplitudes and
    the vector is normalized.  Unitary invariance of the Gaussian makes
    the result uniform on the unit sphere of C^dim; in particular the
    squared overlap of two independent draws has mean 1/dim.  Clouds of
    states (:func:`qspan.percolation.random_cloud`) come from the same
    sampler, one row per state.  ``dim`` must be an integer >= 1 (a numpy
    one included); anything else is a ``ValueError``.
    """
    return StateVector(_haar_rows(positive(dim, "dim"), 1, rng)[0])


def fs_distance(psi: StateVector, phi: StateVector) -> float:
    """Fubini-Study distance arccos |<psi|phi>|, in [0, pi/2].

    Evaluated as arctan2 of (norm of phi's component orthogonal to psi,
    overlap modulus), which is the same angle but stays accurate when
    the states nearly coincide; arccos alone loses half the significant
    digits there.  The overlap modulus is implicitly clamped, so
    rounding noise cannot push the result out of range.
    """
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} != {phi.dim}")
    return float(_fs_distances(psi.amplitudes, phi.amplitudes[None])[0])


def to_coords(psi: StateVector) -> HypersphericalCoords:
    """Recover the canonical chart angles of a state.

    The global phase is fixed first by rotating the last amplitude to be
    real and non-negative.  With t_d the Euclidean norm of the modulus
    tail (m_d, m_{d+1}, ...), the running sine product telescopes to t_d
    for a unit vector, so the magnitude angles are

        theta_d = arctan2(t_{d+1}, m_d),

    equal to arccos(m_d / t_d) but still accurate when t_d is tiny.
    Once the tail norm vanishes the remaining angles come out 0, and
    phases of zero-modulus amplitudes are set to 0.
    """
    return HypersphericalCoords(_chart(psi.amplitudes[None])[0][0], psi.dim)


def state_from_angles(theta: np.ndarray) -> StateVector:
    """Evaluate the chart at arbitrary real angles.

    Angles outside the canonical ranges are valid input; the amplitudes
    simply land elsewhere on the sphere (the walk relies on this after
    adding a tangent displacement).  The result is renormalized to guard
    against rounding drift, which keeps repeated stepping stable.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.size % 2 != 0:
        raise ValueError("theta must be a 1-d array of even length")
    return StateVector(_amplitudes(theta[None])[0])


def from_coords(coords: HypersphericalCoords) -> StateVector:
    """Evaluate the chart at a canonical coordinate point."""
    return state_from_angles(coords.theta)


def metric_tensor(coords: HypersphericalCoords) -> np.ndarray:
    """Fubini-Study metric in chart coordinates, as a read-only (p, p) array.

    The metric is

        g_ij = Re[ <d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi> ],

    symmetrized.  In this chart the assembly collapses to a closed form.
    Write P_k for the product of sin^2 over magnitude angles preceding
    angle k, and v_d = m_d^2 for the squared moduli of the first D - 1
    amplitudes.  Then

    * magnitude block: diagonal, g_kk = P_k (the sphere metric; the
      phase-projection term vanishes because sum_d m_d dm_d = 0),
    * phase block: diag(v) - v v^T (the projection term survives),
    * magnitude-phase cross block: exactly zero, since those overlaps
      are purely imaginary.

    For dim 1 the metric is the empty (0, 0) array.
    """
    d = coords.dim
    n = d - 1
    p = 2 * n
    if p == 0:
        return _readonly(np.zeros((0, 0)))
    mag = coords.theta[:n]
    sin_sq = np.sin(mag) ** 2
    prefix = np.cumprod(np.concatenate(([1.0], sin_sq[:-1])))
    v = prefix * np.cos(mag) ** 2
    g = np.zeros((p, p))
    g[np.arange(n), np.arange(n)] = prefix
    g[n:, n:] = np.diag(v) - np.outer(v, v)
    return _readonly(g)
