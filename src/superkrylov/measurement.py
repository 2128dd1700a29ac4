"""Emulated device measurements of recovery probabilities.

A "measurement" here is the exact recovery probability plus additive
i.i.d. Gaussian noise, y_s = R_jk(t_s) + eta_s with eta_s ~ N(0, theta^2),
taken on an equally spaced timepoint grid inside an open window around
the Krylov timestep.  The module also owns the minimax estimator's noise
budget, which derives its weights q and r from two bounds: the forcing
norm (the squared L2 norm of the signal's M-th derivative over the
horizon, read for every gap from one table of F) and the squared l2
norm of the noise vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._cache import content_cache
from .dynamics import (
    SpectralDecomposition,
    _F,
    _check_natural,
    _check_times,
    _is_integer,
    eigenbasis_weights,
    recovery_probability,
)
from .errors import InvalidInput

# Gauss-Legendre nodes of the forcing-norm quadrature, per panel.  The rule
# is tabulated below from leggauss, so no sweep builds it; changing this
# number means regenerating the table (see _HALF_NODES).
QUADRATURE_NODES = 16
# The largest h W (panel width in scaled time, spectral width) that one
# panel integrates to 1.3e-15, as F^2 has frequencies up to 2 W.
PANEL_PHASE = 1.5 * math.pi


@dataclass(frozen=True)
class NoiseBudget:
    """Weights q = 1/(2 f_norm_sq_bound) and r = 1/(2 eta_norm_sq_bound).

    Derived from the bounds, never passed, so the minimax certificate's
    ellipsoid premise q * f_norm_sq_bound <= 1/2, r * eta_norm_sq_bound
    <= 1/2 holds by construction.  A zero noise bound (exact data) gives
    r = inf, so the noise term vanishes (see ``minimax._ridge_solve``).
    """

    f_norm_sq_bound: float
    eta_norm_sq_bound: float
    q: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        f, eta = self.f_norm_sq_bound, self.eta_norm_sq_bound
        if not (0 < f < np.inf and 0 <= eta < np.inf):  # a NaN fails this too
            raise InvalidInput(f"bounds ({f}, {eta}) must be finite, the "
                               "first positive and the second nonnegative")
        # Python floats over- and underflow without a warning
        q = 1.0 / (2.0 * float(f))
        r = 1.0 / (2.0 * float(eta)) if eta > 0 else math.inf
        # a subnormal bound sends q or r to inf; a bound near the top of the
        # float range makes it subnormal, too coarse to keep q * f <= 1/2
        normal = np.finfo(float).tiny
        if not (normal <= q < np.inf and (eta == 0 or normal <= r < np.inf)):
            raise InvalidInput(f"bounds ({f}, {eta}) give q = {q}, r = {r}, "
                               "which must be normal floats")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)


def sample_grid(t_star: float, delta_t: float, D: int) -> np.ndarray:
    """D equally spaced timepoints inside the open window (t*-dt, t*+dt).

    Endpoints are inset by half a spacing, so the grid stays strictly
    inside the window and contains t* whenever D is odd.
    """
    if not (_is_integer(D) and D >= 2):
        raise InvalidInput(f"timepoint count D = {D!r} must be an integer >= 2")
    if not 0 < delta_t < np.inf:  # a NaN fails this too
        raise InvalidInput(f"delta_t = {delta_t} must be positive and finite")
    if not 0 < t_star - delta_t < np.inf:
        raise InvalidInput(f"window ({t_star - delta_t}, {t_star + delta_t}) "
                           "must be finite and lie in t > 0")
    h = 2.0 * delta_t / D
    return t_star - delta_t + h / 2 + h * np.arange(D)


def measure_series(spec: SpectralDecomposition, v: np.ndarray, j: int, k: int,
                   grid: np.ndarray, theta: float, seed=None) -> np.ndarray:
    """Sample y_s = R_jk(t_s) + eta_s with eta_s ~ N(0, theta^2) on a
    strictly increasing grid of D >= 2 finite times; returns y, of shape (D,).

    theta = 0 returns exact values; a fixed seed is fully reproducible.
    """
    if not 0 <= theta < np.inf:  # a NaN fails this too
        raise InvalidInput(f"theta = {theta} must be nonnegative and finite")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidInput("need a 1-D grid with D >= 2")
    _check_times(grid)
    if not np.all(np.diff(grid) > 0):
        raise InvalidInput("timepoints must be strictly increasing")
    return _noisy_series(recovery_probability(spec, v, j, k, grid), theta, [seed])


def _noisy_series(values: np.ndarray, theta: float, seeds) -> np.ndarray:
    """y = values + eta, row i's noise D = values.shape[-1] draws of
    N(0, theta^2) from ``default_rng(seeds[i])`` (one seed for 1-D values),
    into a new array, so a shared ``values`` is never written; theta = 0
    draws nothing and returns ``values`` itself."""
    if theta > 0:
        D = values.shape[-1]
        noise = np.array([np.random.default_rng(seed).normal(0.0, theta, D)
                          for seed in seeds])
        values = values + noise.reshape(values.shape)
    return values


def estimated_eta_norm_sq(D: int, theta: float) -> float:
    """High-probability bound on ||eta||^2 for D i.i.d. N(0, theta^2) draws.

    The mean of the squared norm is D theta^2, and the factor 2 covers
    the chi-square upper tail with a probability that grows with D:
    P(chi^2_D <= 2D) is 0.925 at D = 5 (the default smallest d_values
    entry), 0.949 at D = 7, 0.958 at D = 8 (the first D that reaches
    0.95) and 0.988 at D = 15 (the default D).  So below D = 8 the budget
    premise fails in more than 5% of trials.
    """
    if not (_is_integer(D) and D >= 1):
        raise InvalidInput(f"D = {D!r} must be a positive integer")
    if not 0 <= theta < np.inf:  # a NaN fails this too
        raise InvalidInput(f"theta = {theta} must be nonnegative and finite")
    return 2.0 * D * theta**2


# The nonnegative half of numpy.polynomial.legendre.leggauss(QUADRATURE_NODES)
# (numpy 2.4.6), printed with repr, which round-trips every float exactly.
# leggauss symmetrizes its rule, so mirroring this half rebuilds it bit for
# bit.  For another (even) QUADRATURE_NODES, regenerate both tuples from
#     x, w = numpy.polynomial.legendre.leggauss(QUADRATURE_NODES)
#     half = QUADRATURE_NODES // 2
#     print(x[half:].tolist(), w[half:].tolist())
_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)
# The rule on [-1, 1], read-only because every call shares it.
_GL_NODES = np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES])
_GL_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


@content_cache
def _panel_table(lam, w, h, order, count):
    """Running integrals of F^(order)^2 over [0, (i + 1) h], i < count.

    F^(order) comes from ``dynamics._F``, like every value of F.  Panel i
    is summed on its own row of nodes and the running sum is sequential,
    so entry i is the same bit for bit in a table of any length.
    """
    nodes = h * np.arange(count)[:, None] + 0.5 * h * (_GL_NODES + 1.0)
    panels = 0.5 * h * _GL_WEIGHTS * _F(lam, w, nodes, (order,))[0] ** 2
    return np.cumsum(panels.sum(axis=-1))


def forcing_norm_sq(spec: SpectralDecomposition, v: np.ndarray, j: int, k: int,
                    tau: float, order: int) -> float:
    """Exact squared L2 norm of the order-th derivative of R_jk over [0, tau].

    With g = |k - j| >= 1, R_jk^(order)(t) = g^order F^(order)(g t), so the
    norm is g^(2 order - 1) times the integral of F^(order)^2 over
    [0, g tau]: a prefix of a ``_panel_table`` of the spectral measure,
    on panels of width tau / P, P = ceil(tau W / PANEL_PHASE) (1 whenever
    delta_t < t*).  A table's length is rounded up to a power of two, so
    the gaps up to g share ceil(log2 g) + 1 tables with every theta and
    trial.  A diagonal entry (g = 0), checked like any other, is exactly
    tau for order 0, else 0.  A norm past the float range raises InvalidInput.
    A recovery series' model reads it at its own order through ``GapModels``.
    """
    if not 0 < tau < np.inf:  # a NaN fails this too
        raise InvalidInput(f"tau = {tau} must be positive and finite")
    _check_natural("Krylov indices", j, k)
    _check_natural("derivative orders", order)
    w = eigenbasis_weights(spec, v)
    if j == k:
        return float(tau) if order == 0 else 0.0
    g, order = abs(int(k) - int(j)), int(order)
    per_unit = max(1, math.ceil(tau * spec.spectral_width / PANEL_PHASE))
    count = g * per_unit
    sums = _panel_table(np.asarray(spec.eigenvalues, dtype=float),
                        np.asarray(w, dtype=float),
                        tau / per_unit, order, 1 << (count - 1).bit_length())
    try:  # the int g^(2 order - 1) itself may exceed the float range
        norm_sq = g ** (2 * order - 1) * float(sums[count - 1])
    except OverflowError:
        norm_sq = math.inf
    if not norm_sq < math.inf:
        raise InvalidInput(f"forcing norm at j={j} k={k} order={order} is "
                           f"{norm_sq}, beyond the float range")
    return norm_sq
