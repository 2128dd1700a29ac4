"""Emulated device measurements of recovery probabilities.

A "measurement" here is the exact recovery probability plus additive
i.i.d. Gaussian noise, y_s = R_jk(t_s) + eta_s with eta_s ~ N(0, theta^2),
taken on an equally spaced timepoint grid inside an open window around
the Krylov timestep.  The module also owns the minimax estimator's noise
budget, which derives its weights q and r from two bounds: the forcing
norm (the squared L2 norm of the signal's M-th derivative over the
horizon) and the squared l2 norm of the noise vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .dynamics import SpectralDecomposition, recovery_derivative, recovery_probability
from .errors import BadWindow, NonPositiveBound

# With zero noise the budget r diverges; cap it so the fit system stays
# solvable in floating point.
ZERO_NOISE_R_FACTOR = 1e12
# Gauss-Legendre nodes of the forcing-norm quadrature, per panel.
QUADRATURE_NODES = 120
# The largest g * tau * W (gap, horizon, spectral width) one panel of the
# rule integrates to rounding; the integrand's top frequency is 2 g W.
PANEL_PHASE = 150.0


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
    """Weights q = 1/(2 f_norm_sq_bound) and r = 1/(2 eta_norm_sq_bound).

    Derived from the bounds, never passed, so the minimax certificate's
    ellipsoid premise q * f_norm_sq_bound <= 1/2, r * eta_norm_sq_bound
    <= 1/2 holds by construction.  A zero noise bound (exact data) would
    send r to infinity; r is then ZERO_NOISE_R_FACTOR * q.
    """

    f_norm_sq_bound: float
    eta_norm_sq_bound: float
    q: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        f, eta = self.f_norm_sq_bound, self.eta_norm_sq_bound
        if not (0 < f < np.inf and 0 <= eta < np.inf):  # a NaN fails this too
            raise NonPositiveBound(f"bounds ({f}, {eta}) must be finite, the "
                                   "first positive and the second nonnegative")
        # Python floats over- and underflow without a warning
        q = 1.0 / (2.0 * float(f))
        r = 1.0 / (2.0 * float(eta)) if eta > 0 else ZERO_NOISE_R_FACTOR * q
        # a subnormal bound sends q or r to inf; a bound near the top of the
        # float range makes it subnormal, too coarse to keep q * f <= 1/2
        normal = np.finfo(float).tiny
        if not (normal <= q < np.inf and normal <= r < np.inf):
            raise NonPositiveBound(f"bounds ({f}, {eta}) give q = {q}, r = {r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)


def sample_grid(t_star: float, delta_t: float, D: int) -> np.ndarray:
    """D equally spaced timepoints inside the open window (t*-dt, t*+dt).

    Endpoints are inset by half a spacing, so the grid stays strictly
    inside the window and contains t* whenever D is odd.
    """
    if not (isinstance(D, numbers.Integral) and D >= 2):
        raise ValueError("the number D of timepoints must be an integer >= 2")
    if not 0 < delta_t < np.inf:  # a NaN fails this too
        raise ValueError("delta_t must be positive and finite")
    if not 0 < t_star - delta_t < np.inf:
        raise BadWindow(f"window ({t_star - delta_t}, {t_star + delta_t}) "
                        "must be finite and lie in t > 0")
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
    if not 0 <= theta < np.inf:  # a NaN fails this too
        raise ValueError("theta must be nonnegative and finite")
    grid = np.asarray(grid, dtype=float)
    values = recovery_probability(spec, v, j, k, grid)
    if theta > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, theta, size=grid.size)
    return MeasurementSeries(timepoints=grid, values=values)


def estimated_eta_norm_sq(D: int, theta: float) -> float:
    """High-probability bound on ||eta||^2 for D i.i.d. N(0, theta^2) draws.

    The mean of the squared norm is D theta^2, and the factor 2 covers
    the chi-square upper tail with a probability that grows with D:
    P(chi^2_D <= 2D) is 0.925 at D = 5 (the default smallest d_values
    entry), 0.949 at D = 7, 0.958 at D = 8 (the first D that reaches
    0.95) and 0.988 at D = 15 (the default D).  So below D = 8 the budget
    premise fails in more than 5% of trials.
    """
    if not (isinstance(D, numbers.Integral) and D >= 1):
        raise ValueError("D must be a positive integer")
    if not 0 <= theta < np.inf:  # a NaN fails this too
        raise ValueError("theta must be nonnegative and finite")
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
    order: int,
) -> float:
    """Exact squared L2 norm of the order-th derivative of R_jk over [0, tau].

    The integrand is a trigonometric polynomial with frequencies up to
    2 |k - j| W, so the QUADRATURE_NODES-point Gauss-Legendre rule, built
    once per process, is rescaled to ceil(|k - j| tau W / PANEL_PHASE)
    equal panels of [0, tau] (at least one), exact to rounding at any gap.
    """
    if not 0 < tau < np.inf:  # a NaN fails this too
        raise ValueError("tau must be positive and finite")
    x, wts = _gauss_legendre()
    panels = max(1, math.ceil(abs(k - j) * tau * spec.spectral_width / PANEL_PHASE))
    h = tau / panels
    nodes = (h * np.arange(panels)[:, None] + 0.5 * h * (x + 1.0)).ravel()
    weights = np.tile(0.5 * h * wts, panels)
    vals = recovery_derivative(spec, v, j, k, nodes, order)
    return float(np.sum(weights * vals**2))
