"""Minimax derivative estimation for noisy recovery-probability series.

The signal x0(t) = R_jk(t) is modelled as the first component of a chain
x_l' = x_{l+1} (l = 0..M-2) driven by an unknown forcing h(t) = x0^{(M)}(t)
on the horizon [0, tau].  Given noisy samples y_s = x0(t_s) + eta_s and an
ellipsoidal prior -- q * ||h||_L2^2 <= 1/2 and r * ||eta||_2^2 <= 1/2 --
the worst-case-optimal reconstruction is a kernel regressor:

    h_hat(s) = sum_i beta_i * chi_i(s) (t_i - s)^{M-1} / (M-1)!,

where chi_i is the indicator of [0, t_i].  These kernels are exactly the
Taylor-remainder weights: integrating h against kernel i recovers
x0(t_i) minus its order-(M-1) Taylor polynomial.  So beta solves the
ridge system

    (q/r I + G) beta = y_tilde,       y_tilde_s = y_s - sum_p t_s^p x_in[p]/p!,

with G the Gram matrix of the remainder kernels.  Component l at time t
has the representer kappa(s) = (t-s)^{M-1-l}/(M-1-l)! on [0, t]; its
overlaps w_i = <k_i, kappa> with the data kernels give the reconstruction
x_hat_l(t) = drift + w^T beta and, through the fit's own matrix, the
worst-case error certificate over the budget ellipsoid,

    sigma^2 = ( <kappa, kappa> - w^T (q/r I + G)^{-1} w ) / q.

An unsolvable system, or a sigma^2 that rounding makes negative or NaN,
raises SingularSystem.

Every kernel inner product is an overlap integral

    int_0^min(a,b) (a-s)^p (b-s)^q ds
        = sum_{k=0}^{q} C(q,k) (b-a)^{q-k} a^{p+k+1} / (p+k+1)    (a <= b),

with the roles of (a, p) and (b, q) swapped when a > b.  All terms are
nonnegative, so the closed form has no cancellation and no quadrature
error, and one broadcasting routine (_overlap) serves every Gram matrix,
reconstruction and certificate in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import BadHorizon, OutOfHorizon, SingularSystem
from .measurement import MeasurementSeries, NoiseBudget


def _overlap(a, p, b, q) -> np.ndarray:
    """int_0^min(a,b) (a-s)^p (b-s)^q ds, broadcast over all four arguments.

    a, b >= 0 are times and p, q >= 0 integer powers; see the module
    docstring for the closed form.  A zero bound min(a, b) gives zero.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    swap = a > b
    # asarray keeps scalar calls on 0-d arrays, whose power loop rounds
    # differently from float64 scalar arithmetic
    lo, hi = np.asarray(np.minimum(a, b)), np.asarray(np.maximum(a, b))
    p, q = np.where(swap, q, p), np.where(swap, p, q)
    total = np.zeros(np.broadcast_shapes(lo.shape, p.shape))
    coef = np.ones(total.shape)  # C(q, k), which is 0 once k exceeds q
    for k in range(int(q.max(initial=0)) + 1):
        power = p + k + 1
        total += coef * (hi - lo) ** np.maximum(q - k, 0) * lo ** power / power
        coef = coef * (q - k) / (k + 1)
    return total


@dataclass(frozen=True)
class EstimatorModel:
    """Chain order M, initial condition x_in, horizon tau, and budget."""

    M: int
    x_in: np.ndarray
    tau: float
    budget: NoiseBudget

    def __post_init__(self):
        x_in = np.asarray(self.x_in, dtype=float)
        if self.M < 2:
            raise ValueError("chain order M must be at least 2")
        if x_in.shape != (self.M,) or not np.all(np.isfinite(x_in)):
            raise ValueError("x_in must hold M finite values")
        if not 0 < self.tau < np.inf:
            raise BadHorizon("horizon tau must be positive and finite")
        object.__setattr__(self, "x_in", x_in)

    def homogeneous(self, t, component: int = 0):
        """Drift-only trajectory at time(s) t: the Taylor flow of x_in."""
        return sum(
            t ** (p - component) * self.x_in[p] / factorial(p - component)
            for p in range(component, self.M)
        )


@dataclass(frozen=True)
class MinimaxFit:
    """Fitted kernel weights beta plus everything needed to re-evaluate."""

    beta: np.ndarray
    model: EstimatorModel
    timepoints: np.ndarray
    residual_norm: float


def _check_grid(model: EstimatorModel, ts: np.ndarray) -> np.ndarray:
    # every comparison is written so that a NaN fails it
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.diff(ts) > 0):
        raise ValueError("timepoints must be strictly increasing")
    if not ts[-1] < model.tau:
        raise BadHorizon("timepoints must lie strictly inside [0, tau)")
    if not ts[0] >= 0:
        raise OutOfHorizon("timepoints must be nonnegative")
    return ts


def kernel_matrix(model: EstimatorModel, timepoints) -> np.ndarray:
    """Gram matrix of the full chain-propagated kernels.

    K_ij = int_0^min(ti,tj) sum_{p<M} (ti-s)^p (tj-s)^p / (p!)^2 ds; for
    M=3 and ti = tj = 1 this is 1 + 1/3 + 1/20.  Symmetric PSD.
    """
    ts = _check_grid(model, timepoints)
    p = np.arange(model.M)[:, None, None]
    scale = np.array([factorial(i) ** 2 for i in range(model.M)], dtype=float)
    return np.sum(_overlap(ts[:, None], p, ts, p) / scale[:, None, None], axis=0)


def forcing_gram(model: EstimatorModel, timepoints) -> np.ndarray:
    """Gram matrix of the Taylor-remainder kernels used by the fit.

    G_ij = int_0^min(ti,tj) (ti-s)^{M-1} (tj-s)^{M-1} / ((M-1)!)^2 ds.
    This is the L2 Gram of the forcing representers; the fit regularizes
    ||h_hat||_L2^2 = beta^T G beta, the roughness of the reconstruction.
    """
    ts = _check_grid(model, timepoints)
    p = model.M - 1
    return _overlap(ts[:, None], p, ts, p) / factorial(p) ** 2


def _ridge_solve(model: EstimatorModel, ts: np.ndarray, rhs: np.ndarray):
    """Solve (q/r I + G) x = rhs on the grid ts; returns x and the matrix."""
    system = (model.budget.q / model.budget.r * np.eye(ts.size)
              + forcing_gram(model, ts))
    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("ridge system gave a non-finite solution")
    return x, system


def _representer(model: EstimatorModel, ts: np.ndarray, t: float,
                 component: int) -> np.ndarray:
    """Overlaps w_i = <k_i, kappa> of the data kernels on ts with the
    representer kappa of component `component` at time t."""
    M = model.M
    if not 0 <= component < M:
        raise ValueError("component out of range")
    if not 0 <= t <= model.tau:
        raise OutOfHorizon(f"t = {t} outside [0, {model.tau}]")
    n = M - 1 - component
    return _overlap(ts, M - 1, t, n) / (factorial(M - 1) * factorial(n))


def fit(model: EstimatorModel, series: MeasurementSeries) -> MinimaxFit:
    """Solve the ridge system for the kernel weights beta.

    The data are first reduced to Taylor remainders y_tilde (subtracting
    the drift of the known initial condition); beta then solves
    (q/r I + G) beta = y_tilde with G the forcing Gram matrix.
    """
    ts = _check_grid(model, series.timepoints)
    y_tilde = series.values - model.homogeneous(ts)
    beta, system = _ridge_solve(model, ts, y_tilde)
    residual = float(np.linalg.norm(system @ beta - y_tilde))
    return MinimaxFit(beta=beta, model=model, timepoints=ts,
                      residual_norm=residual)


def evaluate_component(fit_result: MinimaxFit, t: float, component: int) -> float:
    """Reconstructed chain component x_hat_l(t) for l = component.

    Drift of the initial condition plus the doubly integrated kernel
    contributions; by construction x_hat_l' = x_hat_{l+1} exactly and the
    value is continuous (C^{M-1-l}) across the data knots.
    """
    model = fit_result.model
    w = _representer(model, fit_result.timepoints, t, component)
    return float(model.homogeneous(t, component) + fit_result.beta @ w)


def evaluate_x0(fit_result: MinimaxFit, t: float) -> float:
    """Reconstructed signal value x_hat_0(t); x_hat_0(0) = x_in[0]."""
    return evaluate_component(fit_result, t, 0)


def evaluate_x1(fit_result: MinimaxFit, t: float) -> float:
    """Reconstructed first derivative x_hat_1(t); x_hat_1(0) = x_in[1]."""
    return evaluate_component(fit_result, t, 1)


def error_certificate(model: EstimatorModel, timepoints, t_eval: float,
                      component: int) -> float:
    """Worst-case bound sigma on |x_hat_component(t_eval) - truth|.

    Valid for every signal/noise pair inside the budget ellipsoid.  With
    kappa the representer of (t_eval, component) and w its overlaps with
    the data kernels, the certificate uses the fit's matrix:

        sigma^2 = ( <kappa, kappa> - w^T (q/r I + G)^{-1} w ) / q.

    A sigma^2 that rounding makes negative, or NaN, raises SingularSystem
    naming t_eval and the component.  The closed form is validated against
    a dense finite-difference boundary-value solve in the test suite.
    """
    ts = _check_grid(model, timepoints)
    w = _representer(model, ts, t_eval, component)
    n = model.M - 1 - component
    kk = float(_overlap(t_eval, n, t_eval, n)) / factorial(n) ** 2
    u, _ = _ridge_solve(model, ts, w)
    sigma_sq = (kk - float(w @ u)) / model.budget.q
    if not sigma_sq >= 0:
        raise SingularSystem(
            f"certificate variance {sigma_sq:.3g} at t = {t_eval}, component "
            f"{component}: the ridge system is too ill-conditioned to certify")
    return float(np.sqrt(sigma_sq))
