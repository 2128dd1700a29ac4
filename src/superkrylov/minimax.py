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

with G the Gram matrix of the remainder kernels.  Reconstructions of every
chain component then follow by repeated integration from the known initial
condition x_in, and a worst-case error certificate sigma for any pointwise
functional comes from the same Gram system in closed form.

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

from .errors import (
    BadHorizon,
    BVPSolveFailure,
    OutOfHorizon,
    SingularSystem,
)
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
        if x_in.shape != (self.M,):
            raise ValueError("x_in must have length M")
        if self.tau <= 0:
            raise BadHorizon("horizon tau must be positive")
        object.__setattr__(self, "x_in", x_in)

    def homogeneous(self, t: float, component: int = 0) -> float:
        """Drift-only trajectory: component of the Taylor flow of x_in."""
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
    values: np.ndarray
    residual_norm: float


def _check_grid(model: EstimatorModel, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("timepoints must be strictly increasing")
    if ts[-1] >= model.tau:
        raise BadHorizon("timepoints must lie strictly inside [0, tau)")
    if ts[0] < 0:
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


def fit(model: EstimatorModel, series: MeasurementSeries) -> MinimaxFit:
    """Solve the ridge system for the kernel weights beta.

    The data are first reduced to Taylor remainders y_tilde (subtracting
    the drift of the known initial condition); beta then solves
    (q/r I + G) beta = y_tilde with G the forcing Gram matrix.
    """
    ts = _check_grid(model, series.timepoints)
    y = series.values
    if not np.all(np.isfinite(y)):
        raise SingularSystem("non-finite measurement values")
    y_tilde = y - np.array([model.homogeneous(t) for t in ts])
    lam = model.budget.q / model.budget.r
    G = forcing_gram(model, ts)
    system = lam * np.eye(ts.size) + G
    try:
        beta = np.linalg.solve(system, y_tilde)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularSystem("fit produced non-finite weights")
    residual = float(np.linalg.norm(system @ beta - y_tilde))
    return MinimaxFit(beta=beta, model=model, timepoints=ts,
                      values=np.asarray(y, dtype=float),
                      residual_norm=residual)


def evaluate_component(fit_result: MinimaxFit, t: float, component: int) -> float:
    """Reconstructed chain component x_hat_l(t) for l = component.

    Drift of the initial condition plus the doubly integrated kernel
    contributions; by construction x_hat_l' = x_hat_{l+1} exactly and the
    value is continuous (C^{M-1-l}) across the data knots.
    """
    model = fit_result.model
    M = model.M
    if component < 0 or component >= M:
        raise ValueError("component out of range")
    if t < 0 or t > model.tau:
        raise OutOfHorizon(f"t = {t} outside [0, {model.tau}]")
    norm = factorial(M - 1 - component) * factorial(M - 1)
    kernels = _overlap(t, M - 1 - component, fit_result.timepoints, M - 1)
    return float(model.homogeneous(t, component) + fit_result.beta @ kernels / norm)


def evaluate_x0(fit_result: MinimaxFit, t: float) -> float:
    """Reconstructed signal value x_hat_0(t); x_hat_0(0) = x_in[0]."""
    return evaluate_component(fit_result, t, 0)


def evaluate_x1(fit_result: MinimaxFit, t: float) -> float:
    """Reconstructed first derivative x_hat_1(t); x_hat_1(0) = x_in[1]."""
    return evaluate_component(fit_result, t, 1)


def error_certificate(model: EstimatorModel, timepoints, t_eval: float,
                      component: int) -> float:
    """Worst-case bound sigma on |x_hat_component(t_eval) - truth|.

    Valid for every signal/noise pair inside the budget ellipsoid.  The
    pointwise functional at (t_eval, component) has the integral
    representation kappa(s) = (t_eval-s)^{M-1-c}/(M-1-c)! on [0, t_eval]
    against the forcing, so the certificate reduces to the same Gram
    algebra as the fit:

        sigma^2 = (1/q) ( <kappa, kappa> - r w^T (q I + r G)^{-1} w ),

    with w_i = <k_i, kappa> the overlaps of the data kernels with kappa.
    The closed form is validated against a dense finite-difference
    boundary-value solve in the test suite.
    """
    ts = _check_grid(model, np.asarray(timepoints, dtype=float))
    M, c = model.M, component
    if c < 0 or c >= M:
        raise ValueError("component out of range")
    if t_eval < 0 or t_eval > model.tau:
        raise OutOfHorizon(f"t_eval = {t_eval} outside [0, {model.tau}]")
    q, r = model.budget.q, model.budget.r
    n = M - 1 - c
    w = _overlap(ts, M - 1, t_eval, n) / (factorial(M - 1) * factorial(n))
    kk = float(_overlap(t_eval, n, t_eval, n)) / factorial(n) ** 2
    G = forcing_gram(model, ts)
    try:
        u = np.linalg.solve(q * np.eye(ts.size) + r * G, w)
    except np.linalg.LinAlgError as exc:
        raise BVPSolveFailure(str(exc)) from exc
    sigma_sq = (kk - r * float(w @ u)) / q
    return float(np.sqrt(max(sigma_sq, 0.0)))
