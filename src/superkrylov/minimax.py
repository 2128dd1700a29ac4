"""Minimax derivative estimation for noisy recovery-probability series.

The signal x0(t) = R_jk(t) is modelled as the first component of a chain
x_l' = x_{l+1} (l = 0..M-2) driven by an unknown forcing h(t) = x0^{(M)}(t)
on the horizon [0, tau], from the known initial condition x_in =
(x0(0), ..., x0^{(M-1)}(0)), whose length is M; ``GapModels`` builds x_in
and the bound on ||h|| below for every gap's series R_0g from the one M,
so the prior bounds the forcing of the chain it models.  Given noisy samples
y_s = x0(t_s) + eta_s and an ellipsoidal prior -- q * ||h||_L2^2 <= 1/2
and r * ||eta||_2^2 <= 1/2 -- the worst-case-optimal reconstruction is a
kernel regressor:

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
error.  One routine, _overlap, serves every Gram matrix, reconstruction
and certificate in this module: its powers are integers, and only the
times a, b broadcast.  The overlaps of the data kernels on a grid depend
only on the grid, not on the data, so ``_kernel_overlaps(ts, M, t, n)``
computes them and ``_cache.content_cache`` keeps them:

* the representer overlaps w of component l at time t are
  ``_kernel_overlaps(ts, M, t, M - 1 - l)``; a sweep that reads every
  gap, theta and trial at the one timestep t* computes each w once;
* the forcing Gram G is ``_kernel_overlaps(ts, M, ts[:, None], M - 1)``:
  column j of G is the component-0 representer at t_j.  A sweep fits
  every gap, theta and trial on one grid, so it builds G once per grid.

``_cache`` describes the keys, the read-only results and the bound.  A
Gram on D timepoints holds D^2 floats, 51 KB at D = 80; a representer
holds D floats.  The grid checks, and the check that a component is an
integer in range, run before the cache is consulted.

``fit_batch`` fits many models on one grid at once: one G, and one
stacked solve of the k ridge systems.  ``fit`` is a batch of one.  A
``MinimaxFit`` keeps the values of the last time it was evaluated at,
one per component, so the m-pairs of a sweep, which all read each gap's
fit at t*, compute each value once; its beta is a read-only copy, so the
values cannot go stale, and the checks run before the lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from ._cache import content_cache
from .dynamics import SpectralDecomposition, _F, _is_integer, eigenbasis_weights
from .errors import InvalidInput, SingularSystem, _cell
from .measurement import NoiseBudget, forcing_norm_sq

# the largest M whose ((M-1)!)^2, a forcing-Gram denominator, fits a float: 99
MAX_CHAIN_ORDER = next(M for M in range(1, 171)
                       if factorial(M) ** 2 > float(np.finfo(float).max))
# The ridge ratio of exact data (q/r = 0) relative to G's mean diagonal: G has
# units of time^(2M-1), so a bare ratio would depend on the energy unit.
ZERO_NOISE_RIDGE = 1e-12


def _overlap(a, p: int, b, q: int) -> np.ndarray:
    """int_0^min(a,b) (a-s)^p (b-s)^q ds for integer powers p, q >= 0,
    broadcast over the times a, b >= 0: the module docstring's closed form
    around the smaller bound.  A zero bound min(a, b) gives zero.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # asarray keeps scalar calls on 0-d arrays, whose power loop rounds
    # differently from float64 scalar arithmetic
    lo, hi = np.asarray(np.minimum(a, b)), np.asarray(np.maximum(a, b))

    def expand(p, q):  # (lo, p) is the smaller bound and its power
        return sum(comb(q, k) * (hi - lo) ** (q - k) * lo ** (p + k + 1)
                   / (p + k + 1) for k in range(q + 1))

    return expand(p, q) if p == q else np.where(a > b, expand(q, p),
                                                expand(p, q))


@dataclass(frozen=True, eq=False)
class EstimatorModel:
    """Initial condition x_in (its length is the chain order M, 2 to
    MAX_CHAIN_ORDER), horizon tau, and budget."""

    x_in: np.ndarray
    tau: float
    budget: NoiseBudget

    def __post_init__(self):
        x_in = np.asarray(self.x_in, dtype=float)
        if (x_in.ndim != 1 or not 2 <= x_in.size <= MAX_CHAIN_ORDER
                or not np.all(np.isfinite(x_in))):
            raise InvalidInput("x_in must be a 1-D array of 2 to "
                               f"{MAX_CHAIN_ORDER} finite values")
        if not 0 < self.tau < np.inf:
            raise InvalidInput(f"tau = {self.tau} must be positive and finite")
        object.__setattr__(self, "x_in", x_in)
        # Python floats: at a scalar t the drift then multiplies floats,
        # not numpy scalars, in the same IEEE operations
        object.__setattr__(self, "_x_in_floats", tuple(x_in.tolist()))

    @property
    def M(self) -> int:
        """Chain order: the length of x_in."""
        return self.x_in.size

    def homogeneous(self, t, component: int = 0):
        """Drift-only trajectory at time(s) t: the Taylor flow of x_in.

        The terms are added in order by a plain loop: sum() compensates
        the rounding of Python floats from Python 3.12 on.
        """
        x_in = self._x_in_floats
        drift = 0
        for p in range(component, len(x_in)):
            drift += t ** (p - component) * x_in[p] / factorial(p - component)
        return drift


@dataclass(frozen=True, eq=False)
class GapModels:
    """The models of the series R_0g of the state v of spec on the horizon
    tau at chain order M, an integer in [2, MAX_CHAIN_ORDER]: x_in and the
    forcing norm take their order from M, so a budget bounds the derivative
    the chain models.  x_in of gap 1, R_01^(p)(0) for p < M, is one call of
    F at 0; R(0) = 1 and, as R is even, R^(odd)(0) = 0."""

    spec: SpectralDecomposition
    v: np.ndarray
    tau: float
    M: int

    def __post_init__(self):
        if not (_is_integer(self.M) and 2 <= self.M <= MAX_CHAIN_ORDER):
            raise InvalidInput(f"M = {self.M!r} must be an integer in "
                               f"[2, {MAX_CHAIN_ORDER}]")
        if not 0 < self.tau < np.inf:  # a NaN fails this too
            raise InvalidInput(f"tau = {self.tau} must be positive and finite")
        x_in = _F(self.spec.eigenvalues, eigenbasis_weights(self.spec, self.v),
                  0.0, range(self.M))[:, 0]
        x_in[0], x_in[1::2] = 1.0, 0.0
        object.__setattr__(self, "_x_in_1", x_in)

    def models(self, gaps, eta_bounds) -> list[EstimatorModel]:
        """One model per gap g >= 1 and noise bound ||eta||^2, flat: gap by
        gap, then bound by bound.  x_in[p] = g^p R_01^(p)(0), each gap reads
        one ``forcing_norm_sq``, and an error names the gap and M."""
        gaps, eta_bounds = list(gaps), list(eta_bounds)
        for g in gaps:
            if not (_is_integer(g) and g >= 1):
                raise InvalidInput(f"gap {g!r} must be an integer >= 1")
        models = []
        for g in map(int, gaps):
            with _cell(f"gap={g} M={self.M}"):
                f_norm = forcing_norm_sq(self.spec, self.v, 0, g, self.tau, self.M)
                x_in = self._x_in_1 * np.array([g**p for p in range(self.M)], float)
                models += [EstimatorModel(x_in, self.tau, NoiseBudget(f_norm, eta))
                           for eta in eta_bounds]
        return models


@dataclass(frozen=True, eq=False)
class MinimaxFit:
    """Fitted kernel weights beta plus everything needed to re-evaluate.

    beta and timepoints are read-only copies, as the fit keeps the values
    of the last time it was evaluated at (see ``evaluate_component``).
    """

    beta: np.ndarray
    model: EstimatorModel
    timepoints: np.ndarray

    def __post_init__(self):
        for name in ("beta", "timepoints"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # ((type(t), t), values by component) of the last time evaluated;
        # replaced whole, so a reader always sees a key with its own values
        object.__setattr__(self, "_memo", (None, None))


def _check_grid(model: EstimatorModel, ts: np.ndarray) -> np.ndarray:
    # every comparison is written so that a NaN fails it
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidInput("timepoints must be a nonempty 1-D array")
    if not np.all(np.diff(ts) > 0):
        raise InvalidInput("timepoints must be strictly increasing")
    if not ts[-1] < model.tau:
        raise InvalidInput(f"timepoints must lie below tau = {model.tau}")
    if not ts[0] >= 0:
        raise InvalidInput("timepoints must be nonnegative")
    return ts


def kernel_matrix(model: EstimatorModel, timepoints) -> np.ndarray:
    """Gram matrix of the full chain-propagated kernels.

    K_ij = int_0^min(ti,tj) sum_{p<M} (ti-s)^p (tj-s)^p / (p!)^2 ds; for
    M=3 and ti = tj = 1 this is 1 + 1/3 + 1/20.  Symmetric PSD.
    """
    ts = _check_grid(model, timepoints)
    return sum(_overlap(ts[:, None], p, ts, p) / factorial(p) ** 2
               for p in range(model.M))


def forcing_gram(model: EstimatorModel, timepoints) -> np.ndarray:
    """Gram matrix of the Taylor-remainder kernels used by the fit.

    G_ij = int_0^min(ti,tj) (ti-s)^{M-1} (tj-s)^{M-1} / ((M-1)!)^2 ds.
    This is the L2 Gram of the forcing representers; the fit regularizes
    ||h_hat||_L2^2 = beta^T G beta, the roughness of the reconstruction.
    The result is cached per (grid, M) and read-only.
    """
    ts = _check_grid(model, timepoints)
    return _kernel_overlaps(ts, model.M, ts[:, None], model.M - 1)


def _ridge_solve(models, ts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (q_i/r_i I + G) x_i = rhs_i on the grid ts for every model i;
    a q/r of 0 (exact data, r = inf) is ZERO_NOISE_RIDGE trace(G) / D.

    rhs has one row per model.  The systems share G, one forcing_gram
    call, and are solved in one stacked call; the explicit trailing axis
    of rhs makes every numpy read it as a stack of vectors.
    """
    gram = forcing_gram(models[0], ts)
    ratios = [model.budget.q / model.budget.r for model in models]
    if 0.0 in ratios:
        ridge = ZERO_NOISE_RIDGE * float(np.trace(gram)) / ts.size
        ratios = [ratio or ridge for ratio in ratios]
    systems = np.array(ratios)[:, None, None] * np.eye(ts.size) + gram
    try:
        x = np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("ridge system gave a non-finite solution")
    return x


def _check_evaluation(model: EstimatorModel, t: float, component: int):
    """A component is an integer in [0, M) and t lies in [0, tau]."""
    # the type test is the fast path; _is_integer admits numpy integers
    if not ((type(component) is int or _is_integer(component))
            and 0 <= component < model.M):
        raise InvalidInput(f"component {component!r} must be an integer in "
                           f"[0, {model.M})")
    if not 0 <= t <= model.tau:
        raise InvalidInput(f"t = {t} must lie in [0, {model.tau}]")


@content_cache
def _kernel_overlaps(ts: np.ndarray, M: int, t, n: int) -> np.ndarray:
    """Overlaps of the order-(M-1) data kernels on the grid ts with
    (t-s)^n/n! on [0, t], broadcast over t."""
    return _overlap(ts, M - 1, t, n) / (factorial(M - 1) * factorial(n))


def fit_batch(models, timepoints, values) -> list[MinimaxFit]:
    """Solve the ridge systems of many models on one grid for their beta.

    ``values`` holds the finite samples on the grid of D >= 2
    ``timepoints``, of shape (D,) or (k, D).  Row i is the data of
    ``models[i]``; a single row, or 1-D values, serves every model.  The
    models share the order M, and the grid must lie inside each horizon.
    Each row is first reduced to Taylor remainders y_tilde (subtracting
    the drift of its model's initial condition); beta_i then solves
    (q_i/r_i I + G) beta_i = y_tilde_i with G the forcing Gram matrix,
    one G and one stacked solve for the whole batch.
    """
    models = list(models)
    if not models:
        raise InvalidInput("a batch needs at least one model")
    if any(model.M != models[0].M for model in models):
        raise InvalidInput("the models of a batch must share the order M")
    # the grid check against the shortest horizon covers every model
    ts = _check_grid(min(models, key=lambda model: model.tau), timepoints)
    ys = np.asarray(values, dtype=float)
    if (ts.size < 2 or ys.ndim not in (1, 2) or ys.shape[-1] != ts.size
            or ys.size == 0):
        raise InvalidInput("need a 1-D grid with D >= 2 and values of "
                           "shape (D,) or (k, D)")
    if ys.ndim == 2 and len(ys) not in (1, len(models)):
        raise InvalidInput(f"{len(ys)} data rows for {len(models)} "
                           "models: need one row per model, or one for all")
    if not np.all(np.isfinite(ys)):
        raise InvalidInput("measurement values must be finite")
    drift = np.array([model.homogeneous(ts) for model in models])
    y_tilde = ys - drift
    betas = _ridge_solve(models, ts, y_tilde)
    return [MinimaxFit(beta=beta, model=model, timepoints=ts)
            for model, beta in zip(models, betas)]


def fit(model: EstimatorModel, timepoints, values) -> MinimaxFit:
    """Solve the ridge system of one model for its kernel weights beta:
    ``fit_batch`` with a batch of one."""
    [result] = fit_batch([model], timepoints, values)
    return result


def evaluate_component(fit_result: MinimaxFit, t: float, component: int) -> float:
    """Reconstructed chain component x_hat_l(t) for l = component.

    Drift of the initial condition plus the doubly integrated kernel
    contributions; by construction x_hat_l' = x_hat_{l+1} exactly and the
    value is continuous (C^{M-1-l}) across the data knots.  The fit keeps
    the values of the last t it was evaluated at, by component, and
    returns a kept value after the checks, so a repeat costs a lookup.
    """
    model = fit_result.model
    _check_evaluation(model, t, component)
    # keyed by type as well: a float32 t computes in float32
    key = (type(t), t)
    memo_key, values = fit_result._memo
    if memo_key != key:
        values = [None] * model.M
        object.__setattr__(fit_result, "_memo", (key, values))
    value = values[component]
    if value is None:
        w = _kernel_overlaps(fit_result.timepoints, model.M, float(t),
                             model.M - 1 - component)
        value = float(model.homogeneous(t, component) + fit_result.beta.dot(w))
        values[component] = value
    return value


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
    _check_evaluation(model, t_eval, component)
    n = model.M - 1 - component
    w = _kernel_overlaps(ts, model.M, float(t_eval), n)
    kk = float(_overlap(t_eval, n, t_eval, n)) / factorial(n) ** 2
    [u] = _ridge_solve([model], ts, w[None])
    sigma_sq = (kk - float(w @ u)) / model.budget.q
    if not sigma_sq >= 0:
        raise SingularSystem(
            f"certificate variance {sigma_sq:.3g} at t = {t_eval}, component "
            f"{component}: the ridge system is too ill-conditioned to certify")
    return float(np.sqrt(sigma_sq))
