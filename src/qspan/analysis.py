"""Fits and concentration statistics for walk and percolation surveys.

Three fitting helpers cover the scaling laws that show up downstream:

* :func:`fit_power_law` for critical strides, delta_s = (pi/2) A M^-B,
  as an ordinary least-squares line in log-log space;
* :func:`fit_exponent_scaling` for plain y = a x^b relations (used for
  how fitted amplitudes and exponents move with register size);
* :func:`fit_saturating_power_law` for amplitudes approaching a ceiling,
  y = gamma - alpha x^-beta, by scipy.optimize.least_squares.

The concentration half quantifies how sharply the squared overlap of two
random states of dimension D peaks at its mean 1/D: an exponential tail
bound, and its empirical counterpart from sampled state pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from ._checks import count, positive, within
from ._seeds import spawn
from .hilbert import HALF_PI, _haar_rows

__all__ = [
    "FitError",
    "PowerLawFit",
    "SaturatingFit",
    "ConcentrationReport",
    "fit_power_law",
    "fit_exponent_scaling",
    "fit_saturating_power_law",
    "concentration_bound",
    "overlap_probability_bound",
    "empirical_concentration",
]


class FitError(ValueError):
    """A fit was asked of data it cannot be computed from."""


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a two-parameter log-log line fit.

    For :func:`fit_power_law` the model is delta_s = (pi/2) * A * M**-B
    with ``amplitude`` = A and ``exponent`` = B (positive B means decay).
    For :func:`fit_exponent_scaling` the model is y = a * x**b with
    ``amplitude`` = a and ``exponent`` = b carrying its natural sign.
    Standard errors come from the regression covariance in log space;
    the amplitude's is mapped through the exponential (delta method), so
    it is directly comparable to parenthesized-digit uncertainties.
    ``rss`` is the residual sum of squares in log space.
    """

    amplitude: float
    exponent: float
    amplitude_stderr: float
    exponent_stderr: float
    rss: float
    n_points: int


def _loglog_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float]:
    """OLS fit of log y = intercept + slope * log x.

    Returns (intercept, slope, se_intercept, se_slope, rss).  With two
    points the line is exact and the standard errors are zero.
    """
    lx = np.log(x)
    ly = np.log(y)
    n = lx.size
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    if sxx == 0.0:
        raise FitError("x values must not all coincide")
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    rss = float(resid @ resid)
    dof = n - 2
    var = rss / dof if dof > 0 else 0.0
    se_slope = math.sqrt(var / sxx)
    se_intercept = math.sqrt(var * (1.0 / n + xbar**2 / sxx))
    return intercept, slope, se_intercept, se_slope, rss


def _validated_xy(x, y, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of equal length")
    if x.size < minimum:
        raise FitError(f"need at least {minimum} points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError("fit data must be finite")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise FitError("fit data must be positive")
    return x, y


def fit_power_law(steps, strides) -> PowerLawFit:
    """Fit critical strides to delta_s = (pi/2) * A * M**-B.

    ``steps`` are the M values, ``strides`` the matching delta_s means.
    The fit is an unweighted least-squares line of log(2 delta_s / pi)
    against log M; B is reported with the positive-decay sign.
    """
    fit = fit_exponent_scaling(steps, np.asarray(strides, dtype=np.float64) / HALF_PI)
    return replace(fit, exponent=-fit.exponent)


def fit_exponent_scaling(x, y) -> PowerLawFit:
    """Fit y = a * x**b (no pi/2 prefactor, exponent keeps its sign)."""
    x, y = _validated_xy(x, y, 2)
    intercept, slope, se_i, se_s, rss = _loglog_line(x, y)
    amplitude = math.exp(intercept)
    return PowerLawFit(
        amplitude=amplitude,
        exponent=slope,
        amplitude_stderr=amplitude * se_i,
        exponent_stderr=se_s,
        rss=rss,
        n_points=int(x.size),
    )


@dataclass(frozen=True)
class SaturatingFit:
    """Result of fitting y = gamma - alpha * x**-beta.

    ``converged`` reports whether the optimiser met its relative step
    tolerance of 1e-10 within its cap of 200 residual evaluations;
    unconverged parameter values are returned but should not be trusted.
    ``n_iterations`` is the number of residual evaluations spent.
    Standard errors are the usual linearized-covariance estimates at the
    optimum (NaN when the problem's normal matrix is singular there).
    """

    gamma: float
    alpha: float
    beta: float
    gamma_stderr: float
    alpha_stderr: float
    beta_stderr: float
    rss: float
    n_points: int
    converged: bool
    n_iterations: int


def fit_saturating_power_law(x, y) -> SaturatingFit:
    """Fit y = gamma - alpha * x**-beta with scipy's trust-region solver.

    Needs at least four points (three parameters).  The start point
    takes gamma just above max(y) (1.01 * max) and gets alpha, beta from
    the log-linear fit of gamma0 - y against x.  From there
    :func:`scipy.optimize.least_squares` ("trf", unit parameter scale,
    closed-form Jacobian) runs until the relative step falls below
    1e-10; only that test can stop it early, so 200 residual
    evaluations without it mark the fit unconverged.
    """
    x, y = _validated_xy(x, y, 4)
    gamma0 = 1.01 * float(y.max())
    z = gamma0 - y
    if np.any(z <= 0.0):
        raise FitError("could not seed the saturating fit")
    intercept, slope, *_ = _loglog_line(x, z)
    log_x = np.log(x)

    def residuals(p: np.ndarray) -> np.ndarray:
        g, a, b = p
        return g - a * x ** (-b) - y

    def jacobian(p: np.ndarray) -> np.ndarray:
        _, a, b = p
        xb = x ** (-b)
        return np.column_stack((np.ones_like(x), -xb, a * xb * log_x))

    with np.errstate(over="ignore"):
        res = optimize.least_squares(
            residuals, [gamma0, math.exp(intercept), -slope], jac=jacobian, method="trf",
            x_scale=1.0, xtol=1e-10, ftol=None, gtol=None, max_nfev=200,
        )
    rss = float(res.fun @ res.fun)
    dof = x.size - 3
    sigma_sq = rss / dof if dof > 0 else 0.0
    try:
        cov = sigma_sq * np.linalg.inv(res.jac.T @ res.jac)
        errs = np.sqrt(np.maximum(np.diagonal(cov), 0.0))
    except np.linalg.LinAlgError:
        errs = np.full(3, math.nan)
    return SaturatingFit(
        *res.x.tolist(),  # gamma, alpha, beta
        *errs.tolist(),  # their standard errors
        rss=rss,
        n_points=int(x.size),
        converged=bool(res.success),
        n_iterations=int(res.nfev),
    )


def concentration_bound(dim: int, epsilon: float) -> float:
    """Tail bound on the squared overlap of two random states.

    For independent Haar states of dimension D the squared overlap
    concentrates at its mean 1/D:

        P(| |<psi|psi'>|^2 - 1/D | >= eps) <= 4 exp[-(D/4) (D eps / (1 + D eps))^2].

    ``dim`` must be an integer >= 1 and ``epsilon`` a finite number > 0
    (numpy scalars included); anything else is a ``ValueError``.
    """
    dim, epsilon = positive(dim, "dim"), within(epsilon, "epsilon")
    u = dim * epsilon
    return float(4.0 * math.exp(-(dim / 4.0) * (u / (1.0 + u)) ** 2))


def overlap_probability_bound(dim: int) -> float:
    """Lower bound on the squared overlap sitting within 1/D of its mean.

    The complement of :func:`concentration_bound` at epsilon = 1/D,
    which simplifies to 1 - 4 exp(-D/16).  ``dim`` must be an integer >= 1
    (a numpy one included); anything else is a ``ValueError``.
    """
    return float(1.0 - 4.0 * math.exp(-positive(dim, "dim") / 16.0))


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical concentration of the squared overlap at one dimension.

    ``empirical_probability`` estimates the deviation probability the
    bound caps; ``overlap_sq_mean``/``overlap_sq_std`` describe the
    sampled squared overlaps themselves (their mean should sit near
    1/dim).
    """

    dim: int
    epsilon: float
    bound: float
    p_lower_bound: float
    empirical_probability: float
    overlap_sq_mean: float
    overlap_sq_std: float
    samples: int


_BATCH = 8192


def empirical_concentration(
    dim: int, epsilon: float, samples: int, seed
) -> ConcentrationReport:
    """Sample pairs of random states and measure the deviation probability.

    Draws ``samples`` independent pairs (in batches, each batch from its
    own spawned substream, so the result does not depend on batch size
    scheduling), counts how often | |<psi|psi'>|^2 - 1/dim | >= epsilon,
    and reports the rate next to :func:`concentration_bound`.  ``dim``
    and ``samples`` must be integers (numpy ones included); anything
    else is a ``ValueError``.
    """
    dim, samples = count(dim, "dim"), count(samples, "samples")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    bound = concentration_bound(dim, epsilon)
    n_batches = (samples + _BATCH - 1) // _BATCH
    streams = spawn(seed, n_batches)
    hits = 0
    total = 0
    mean_acc = 0.0
    sq_acc = 0.0
    for b, ss in enumerate(streams):
        n = min(_BATCH, samples - b * _BATCH)
        rng = np.random.default_rng(ss)
        z = _haar_rows(dim, 2 * n, rng).reshape(n, 2, dim)
        overlap_sq = np.abs(np.einsum("ij,ij->i", z[:, 0].conj(), z[:, 1])) ** 2
        hits += int(np.count_nonzero(np.abs(overlap_sq - 1.0 / dim) >= epsilon))
        mean_acc += float(overlap_sq.sum())
        sq_acc += float((overlap_sq**2).sum())
        total += n
    mean = mean_acc / total
    var = max(sq_acc / total - mean**2, 0.0)
    return ConcentrationReport(
        dim=dim,
        epsilon=float(epsilon),
        bound=bound,
        p_lower_bound=overlap_probability_bound(dim),
        empirical_probability=hits / total,
        overlap_sq_mean=mean,
        overlap_sq_std=math.sqrt(var),
        samples=total,
    )
