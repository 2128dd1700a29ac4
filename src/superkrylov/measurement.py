"""Emulated device measurements of recovery probabilities.

A "measurement" here is the exact recovery probability plus additive
i.i.d. Gaussian noise, y_s = R_jk(t_s) + eta_s with eta_s ~ N(0, theta^2),
taken on an equally spaced timepoint grid inside an open window around
the Krylov timestep.  The module also owns the (q, r) budget pair used by
the minimax estimator: q bounds the smoothness of the signal (through the
squared L2 norm of its M-th derivative over the horizon) and r bounds the
squared l2 norm of the noise vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dynamics import SpectralDecomposition, recovery_derivative, recovery_probability
from .errors import BadWindow, NonPositiveBound

# With zero noise the budget r diverges; cap it so the fit system stays
# solvable in floating point.
ZERO_NOISE_R_FACTOR = 1e12
# Gauss-Legendre nodes of the forcing-norm quadrature over [0, tau].
QUADRATURE_NODES = 120


@dataclass(frozen=True)
class MeasurementSeries:
    """Noisy samples y_s = R_jk(t_s) + eta_s on a strictly increasing grid."""

    timepoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timepoints, dtype=float)
        ys = np.asarray(self.values, dtype=float)
        if ts.ndim != 1 or ts.shape != ys.shape or ts.size < 2:
            raise ValueError("need matching 1-D grids with D >= 2")
        if not np.all(np.diff(ts) > 0):  # a NaN fails this too
            raise ValueError("timepoints must be strictly increasing")
        if not np.all(np.isfinite(ys)):
            raise ValueError("measurement values must be finite")
        object.__setattr__(self, "timepoints", ts)
        object.__setattr__(self, "values", ys)


@dataclass(frozen=True)
class NoiseBudget:
    """Weights (q, r) dual to the signal-smoothness and noise-norm bounds.

    Constructed so that q * f_norm_sq_bound <= 1/2 and
    r * eta_norm_sq_bound <= 1/2, i.e. any (signal, noise) pair respecting
    the bounds lies inside the uncertainty ellipsoid the minimax estimator
    optimizes over.
    """

    q: float
    r: float
    f_norm_sq_bound: float
    eta_norm_sq_bound: float

    def __post_init__(self):
        finite = np.isfinite([self.f_norm_sq_bound, self.eta_norm_sq_bound])
        if not (0 < self.q < np.inf and 0 < self.r < np.inf and finite.all()):
            raise NonPositiveBound("q, r must be positive and q, r, bounds finite")
        slack = 0.5 * (1 + 1e-12)
        if self.q * self.f_norm_sq_bound > slack:
            raise NonPositiveBound("q * f_norm_sq_bound exceeds 1/2")
        if self.r * self.eta_norm_sq_bound > slack:
            raise NonPositiveBound("r * eta_norm_sq_bound exceeds 1/2")


def sample_grid(t_star: float, delta_t: float, D: int) -> np.ndarray:
    """D equally spaced timepoints inside the open window (t*-dt, t*+dt).

    Endpoints are inset by half a spacing, so the grid stays strictly
    inside the window and contains t* whenever D is odd.
    """
    if D < 2:
        raise ValueError("need at least two timepoints")
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if t_star - delta_t <= 0:
        raise BadWindow(
            f"window ({t_star - delta_t}, {t_star + delta_t}) touches t <= 0"
        )
    h = 2.0 * delta_t / D
    return t_star - delta_t + h / 2 + h * np.arange(D)


def measure_series(
    spec: SpectralDecomposition,
    v: np.ndarray,
    j: int,
    k: int,
    grid: np.ndarray,
    theta: float,
    seed=None,
) -> MeasurementSeries:
    """Sample y_s = R_jk(t_s) + eta_s with eta_s ~ N(0, theta^2).

    theta = 0 returns exact values; a fixed seed is fully reproducible.
    """
    grid = np.asarray(grid, dtype=float)
    values = recovery_probability(spec, v, j, k, grid)
    if theta > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, theta, size=grid.size)
    return MeasurementSeries(timepoints=grid, values=values)


def select_qr(f_norm_sq: float, eta_norm_sq: float) -> NoiseBudget:
    """Largest budget weights consistent with the given norm bounds.

    Returns q = 1/(2 f_norm_sq) and r = 1/(2 eta_norm_sq): the equality
    point of the ellipsoid constraints.  A zero noise bound (exact data)
    would send r to infinity; it is capped at 1e12 * q to keep the fit
    linear system well conditioned.
    """
    if not 0 < f_norm_sq < np.inf:
        raise NonPositiveBound(f"f_norm_sq = {f_norm_sq} must be positive and finite")
    if not 0 <= eta_norm_sq < np.inf:
        raise NonPositiveBound(
            f"eta_norm_sq = {eta_norm_sq} must be nonnegative and finite")
    q = 1.0 / (2.0 * f_norm_sq)
    r = 1.0 / (2.0 * eta_norm_sq) if eta_norm_sq > 0 else ZERO_NOISE_R_FACTOR * q
    return NoiseBudget(q=q, r=r, f_norm_sq_bound=f_norm_sq,
                       eta_norm_sq_bound=eta_norm_sq)


def estimated_eta_norm_sq(D: int, theta: float) -> float:
    """High-probability bound on ||eta||^2 for D i.i.d. N(0, theta^2) draws.

    The mean of the squared norm is D theta^2, and the factor 2 covers
    the chi-square upper tail with a probability that grows with D:
    P(chi^2_D <= 2D) is 0.925 at D = 5 (the default smallest d_values
    entry), 0.949 at D = 7, 0.958 at D = 8 (the first D that reaches
    0.95) and 0.988 at D = 15 (the default D).  So below D = 8 the budget
    premise fails in more than 5% of trials.
    """
    if D < 1:
        raise ValueError("D must be positive")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return 2.0 * D * theta**2


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the QUADRATURE_NODES-point rule on [-1, 1].

    Built on first use, not at import, so runs that never integrate a
    forcing norm do not pay for it.
    """
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def forcing_norm_sq(
    spec: SpectralDecomposition,
    v: np.ndarray,
    j: int,
    k: int,
    tau: float,
    order: int = 3,
) -> float:
    """Exact squared L2 norm of the order-th derivative of R_jk over [0, tau].

    The integrand is a trigonometric polynomial in t, so high-order
    Gauss-Legendre quadrature (QUADRATURE_NODES nodes) is effectively
    exact at desk scale.  The rule is built once per process and rescaled
    to [0, tau] on each call.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    x, wts = _gauss_legendre()
    nodes = 0.5 * tau * (x + 1.0)
    weights = 0.5 * tau * wts
    vals = recovery_derivative(spec, v, j, k, nodes, order)
    return float(np.sum(weights * vals**2))

