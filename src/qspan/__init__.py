"""Geometry of pure-state reachability under step-limited evolution.

The package measures how much of a qubit register's state space a
resource-limited evolution can span: fixed-stride random walks in the
Fubini-Study metric and their critical stride, percolation thresholds
of random state clouds, overlap concentration at large dimension, and
the resulting single-number accessibility assessment of hardware
parameters.  The ``qspan`` command line runs each survey reproducibly.
"""

__version__ = "0.1.0"

from .accessibility import (
    DeviceParams,
    QuantumnessReport,
    accessibility_index,
    assess,
    max_qubits,
    quantumness_margin,
)
from .analysis import (
    ConcentrationReport,
    FitError,
    PowerLawFit,
    SaturatingFit,
    concentration_bound,
    empirical_concentration,
    fit_exponent_scaling,
    fit_power_law,
    fit_saturating_power_law,
    overlap_probability_bound,
)
from .hilbert import (
    HypersphericalCoords,
    StateVector,
    from_coords,
    fs_distance,
    metric_tensor,
    random_state,
    state_from_angles,
    to_coords,
)
from .percolation import (
    ClusterSet,
    DistanceMatrix,
    ExperimentFailureError,
    InsufficientPointsError,
    PercolationResult,
    build_clusters,
    critical_threshold,
    critical_threshold_experiment,
    critical_threshold_sample,
    pairwise_distances,
    random_cloud,
)
from .walk import (
    CriticalStepResult,
    TrialCritical,
    UnitaryProbe,
    WalkConfig,
    WalkRecord,
    critical_step_for_trial,
    critical_step_length,
    dimension_factor,
    heuristic_critical_step,
    heuristic_span,
    paper_epsilon,
    run_walk,
    unitary_span,
)

__all__ = [
    "__version__",
    "DeviceParams",
    "QuantumnessReport",
    "accessibility_index",
    "assess",
    "max_qubits",
    "quantumness_margin",
    "ConcentrationReport",
    "FitError",
    "PowerLawFit",
    "SaturatingFit",
    "concentration_bound",
    "empirical_concentration",
    "fit_exponent_scaling",
    "fit_power_law",
    "fit_saturating_power_law",
    "overlap_probability_bound",
    "HypersphericalCoords",
    "StateVector",
    "from_coords",
    "fs_distance",
    "metric_tensor",
    "random_state",
    "state_from_angles",
    "to_coords",
    "ClusterSet",
    "DistanceMatrix",
    "ExperimentFailureError",
    "InsufficientPointsError",
    "PercolationResult",
    "build_clusters",
    "critical_threshold",
    "critical_threshold_experiment",
    "critical_threshold_sample",
    "pairwise_distances",
    "random_cloud",
    "CriticalStepResult",
    "TrialCritical",
    "UnitaryProbe",
    "WalkConfig",
    "WalkRecord",
    "critical_step_for_trial",
    "critical_step_length",
    "dimension_factor",
    "heuristic_critical_step",
    "heuristic_span",
    "paper_epsilon",
    "run_walk",
    "unitary_span",
]
