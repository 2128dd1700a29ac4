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

import numpy as np

from .dynamics import SpectralDecomposition, recovery_derivative, recovery_probability
from .errors import BadWindow, NonPositiveBound

# With zero noise the budget r diverges; cap it so the fit system stays
# solvable in floating point.
ZERO_NOISE_R_FACTOR = 1e12
# Gauss-Legendre nodes of the forcing-norm quadrature, per panel.  The rule
# is tabulated below from leggauss, so no sweep builds it; changing this
# number means regenerating the table (see _HALF_NODES).
QUADRATURE_NODES = 120
# The largest g * tau * W (gap, horizon, spectral width) one panel of the
# rule integrates to rounding; the integrand's top frequency is 2 g W.
PANEL_PHASE = 150.0


@dataclass(frozen=True)
class MeasurementSeries:
    """Noisy samples y_s = R_jk(t_s) + eta_s on a strictly increasing grid.

    ``values`` holds one series, of the grid's shape (D,), or several on
    the one grid, one per row, of shape (k, D).
    """

    timepoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timepoints, dtype=float)
        ys = np.asarray(self.values, dtype=float)
        if (ts.ndim != 1 or ys.ndim not in (1, 2) or ys.shape[-1] != ts.size
                or ys.size == 0 or ts.size < 2):
            raise ValueError("need a 1-D grid with D >= 2 and values of "
                             "shape (D,) or (k, D)")
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


# The nonnegative half of numpy.polynomial.legendre.leggauss(QUADRATURE_NODES)
# (numpy 2.4.6), printed with repr, which round-trips every float exactly.
# leggauss symmetrizes its rule, so mirroring this half rebuilds it bit for
# bit.  For another (even) QUADRATURE_NODES, regenerate both tuples from
#     x, w = numpy.polynomial.legendre.leggauss(QUADRATURE_NODES)
#     half = QUADRATURE_NODES // 2
#     print(x[half:].tolist(), w[half:].tolist())
_HALF_NODES = (
    0.013035172768578641, 0.03909665862968216, 0.06513157148432151,
    0.09112221606308468, 0.1170509271845839, 0.14290008176203126,
    0.16865211078120385, 0.1942895112416571, 0.21979485805307034,
    0.2451508158786387, 0.270340150917462, 0.2953457426179223,
    0.3201505953140887, 0.3447378497772408, 0.3690907946746593,
    0.39319287792789503, 0.4170277179627981, 0.4405791148436583,
    0.46383106128389223, 0.4867677535257903, 0.5093736020819319,
    0.5316332423309659, 0.5535315449605561, 0.5750536262503936,
    0.5961848581882867, 0.6169108784124537, 0.6372175999732599,
    0.6570912209077655, 0.6765182336205763, 0.6954854340646219,
    0.713979930715622, 0.7319891533341408, 0.7495008615092763,
    0.7665031529781774, 0.782984471715736, 0.7989336157889579,
    0.8143397449706764, 0.8291923881074365, 0.8434814502365489,
    0.8571972194474828, 0.8703303734829442, 0.88287198607517,
    0.8948135330131572, 0.9061468979367375, 0.9168643778536237,
    0.9269586883757737, 0.9364229686716758, 0.9452507861314756,
    0.9534361407422758, 0.9609734691715827, 0.9678576485579723,
    0.974084000010228, 0.9796482918210423, 0.9845467424134106,
    0.9887760230715261, 0.9923332606161664, 0.9952160405989081,
    0.9974224136132905, 0.9989509216740347, 0.9998008656589589,
)
_HALF_WEIGHTS = (
    0.02606886882411011, 0.026051150475686975, 0.026015725821552746,
    0.0259626189389462, 0.025891865923268358, 0.025803514863549194,
    0.02569762580976311, 0.02557427073201389, 0.025433533471619196,
    0.02527550968412522, 0.025100306774292442, 0.02490804382309519,
    0.02469885150678549, 0.02447287200807568, 0.024230258919500713,
    0.023971177139025107, 0.023695802757966265, 0.0234043229413099,
    0.023096935800498458, 0.022773850258780533, 0.02243528590921119,
    0.02208147286540035, 0.021712651605110427, 0.021329072806811344,
    0.020930997179299762, 0.020518695284503674, 0.020092447353589157,
    0.019652543096494748, 0.019199281505025624, 0.0187329706496368,
    0.018253927470048517, 0.017762477559833185, 0.017258954945121356,
    0.016743701857577165, 0.016217068501799697, 0.01567941281730609,
    0.015131100235258979, 0.014572503430111489, 0.014004002066329497,
    0.013425982540374292, 0.012838837718124108, 0.012242966667916631,
    0.011638774389403512, 0.011026671538427988, 0.010407074148125545,
    0.009780403346497598, 0.00914708507073763, 0.008507549778652397,
    0.007862232157689745, 0.0072115708323790655, 0.0065560080716713515,
    0.005895989499283941, 0.005231963814294543, 0.00456438254088188,
    0.003893699862901642, 0.003220372733926812, 0.002544862054009893,
    0.0018676392307709726, 0.0011892343277966884, 0.0005110260637000388,
)
# The rule on [-1, 1], read-only because every call shares it.
_GL_NODES = np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES])
_GL_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


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
    2 |k - j| W, so the QUADRATURE_NODES-point Gauss-Legendre rule is
    rescaled to ceil(|k - j| tau W / PANEL_PHASE) equal panels of [0, tau]
    (at least one), exact to rounding at any gap.  The rule is tabulated
    from leggauss(QUADRATURE_NODES), so a call pays no build cost and the
    rule is the same on every numpy and LAPACK build.
    """
    if not 0 < tau < np.inf:  # a NaN fails this too
        raise ValueError("tau must be positive and finite")
    panels = max(1, math.ceil(abs(k - j) * tau * spec.spectral_width / PANEL_PHASE))
    h = tau / panels
    nodes = (h * np.arange(panels)[:, None] + 0.5 * h * (_GL_NODES + 1.0)).ravel()
    weights = np.tile(0.5 * h * _GL_WEIGHTS, panels)
    vals = recovery_derivative(spec, v, j, k, nodes, order)
    return float(np.sum(weights * vals**2))
