"""Device-level quantumness assessment from coarse hardware parameters.

Collapses a device description (qubit count, qubit-qubit coupling
frequency, decoherence time, total evolution time) into a single
dimensionless accessibility index.  An index above one means the
device's coherent stretches are long and strong enough, relative to
the Hilbert-space dimension, for the evolution to reach an arbitrary
target region; the companion margin keeps the heuristic prefactor
explicit instead of absorbing it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._checks import real, within

__all__ = [
    "DeviceParams",
    "QuantumnessReport",
    "accessibility_index",
    "quantumness_margin",
    "max_qubits",
    "assess",
]

# Relative mismatch tolerated by the internal index(N_max) == 1 cross-check.
_IDENTITY_RTOL = 1e-9


@dataclass(frozen=True)
class DeviceParams:
    """Hardware parameters entering the quantumness criterion.

    ``j_over_h`` is the typical qubit-qubit coupling expressed as a
    frequency in hertz (energy divided by the Planck constant), which
    is how hardware groups usually quote it.  Times are SI seconds.
    ``n_qubits`` may be fractional so the index can be evaluated along
    the qubit-count axis, e.g. at the break-even size returned by
    :func:`max_qubits`.  ``n_qubits`` must be a finite number >= 1 and
    the other fields finite numbers > 0 (numpy scalars included, stored
    as plain floats); anything else is a ``ValueError``.
    """

    n_qubits: float
    j_over_h: float
    t_decoherence: float
    t_evolution: float
    c_constant: float = 1.0

    def __post_init__(self) -> None:
        n_qubits = real(self.n_qubits, "n_qubits")
        if not 1.0 <= n_qubits < math.inf:
            raise ValueError(f"n_qubits: must be a finite number >= 1, got {n_qubits}")
        object.__setattr__(self, "n_qubits", n_qubits)
        for name in ("j_over_h", "t_decoherence", "t_evolution", "c_constant"):
            object.__setattr__(self, name, within(getattr(self, name), name))


@dataclass(frozen=True)
class QuantumnessReport:
    """Assessment summary for one parameter set.

    ``index`` is the dimensionless accessibility index and ``passes``
    is exactly ``index > 1``.  ``margin`` is the ratio of the two sides
    of the underlying criterion inequality with the heuristic constant
    kept explicit (it coincides with ``index`` when that constant is
    one).  ``n_max`` is the largest qubit count at which the same
    device parameters still give index one, reported both as a real
    number and floored to a whole qubit count.
    """

    index: float
    passes: bool
    margin: float
    n_max: float
    n_max_floor: int

    def __post_init__(self) -> None:
        if self.passes != (self.index > 1.0):
            raise ValueError("passes must equal index > 1")


def _index_at(params: DeviceParams, n_qubits: float) -> float:
    coherent_reach = 4.0 * params.j_over_h * math.sqrt(
        params.t_evolution * params.t_decoherence
    )
    return coherent_reach / n_qubits**0.75


def accessibility_index(params: DeviceParams) -> float:
    """Dimensionless accessibility index of a device.

    Computed as 4 * (J/h) * sqrt(t_evolution * t_decoherence) divided
    by n_qubits^(3/4).  Values above one indicate that coherent
    evolution can span the state space of this many qubits.
    """
    return _index_at(params, params.n_qubits)


def quantumness_margin(params: DeviceParams) -> tuple[float, bool]:
    """Ratio of the two sides of the quantumness inequality.

    The criterion compares the phase accumulated per coherent stretch,
    t_decoherence * 2*pi*(J/h), against the required angular progress
    (pi/2) * C * n_qubits^(3/4) * sqrt(t_decoherence / t_evolution).
    Both sides are kept in this printed form rather than simplified, so
    the heuristic constant C stays visible; with C = 1 the margin
    reduces algebraically to the accessibility index.  Returns the
    ratio and whether it exceeds one.
    """
    lhs = params.t_decoherence * 2.0 * math.pi * params.j_over_h
    rhs = (
        (math.pi / 2.0)
        * params.c_constant
        * params.n_qubits**0.75
        * math.sqrt(params.t_decoherence / params.t_evolution)
    )
    margin = lhs / rhs
    return margin, margin > 1.0


def max_qubits(params: DeviceParams) -> float:
    """Largest qubit count at which the index still reaches one.

    Inverts the accessibility index along the qubit-count axis:
    N_max = (4 * J/h)^(4/3) * (t_evolution * t_decoherence)^(2/3).
    N_max may lie below one qubit for a weak device.  Parameters for
    which N_max, or a factor or power on the way to it, overflows or
    falls below the smallest normal float raise ValueError: a subnormal
    keeps too few digits to give N_max, and the formula would otherwise
    return a rounded-off value or fail its own check.
    The result is cross-checked by evaluating the index formula at
    N_max, which must come back as 1 within 1e-9 relative; a mismatch
    would mean the two formulas have drifted apart and raises
    RuntimeError.
    """
    coupling = 4.0 * params.j_over_h
    times = params.t_evolution * params.t_decoherence
    try:
        powers = coupling ** (4.0 / 3.0), times ** (2.0 / 3.0)
    except OverflowError:  # float ** raises where * gives inf
        powers = math.inf, math.inf
    n_max = powers[0] * powers[1]
    if not all(sys.float_info.min <= v < math.inf for v in (coupling, times, *powers, n_max)):
        raise ValueError(
            f"break-even qubit count is out of the normal float range for these "
            f"parameters: {n_max!r}"
        )
    at_break_even = _index_at(params, n_max)
    if not abs(at_break_even - 1.0) <= _IDENTITY_RTOL:
        raise RuntimeError(
            f"index at break-even size is {at_break_even!r}, expected 1 "
            f"within {_IDENTITY_RTOL} relative"
        )
    return n_max


def assess(params: DeviceParams) -> QuantumnessReport:
    """Full quantumness report for one device parameter set."""
    index = accessibility_index(params)
    margin, _ = quantumness_margin(params)
    n_max = max_qubits(params)
    return QuantumnessReport(
        index=index,
        passes=index > 1.0,
        margin=margin,
        n_max=n_max,
        n_max_floor=math.floor(n_max),
    )
