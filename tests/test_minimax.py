import dataclasses
import sys
from math import factorial

import numpy as np
import pytest

from superkrylov import (
    EstimatorModel,
    GapModels,
    InvalidInput,
    NoiseBudget,
    error_certificate,
    estimated_eta_norm_sq,
    evaluate_component,
    evaluate_x0,
    evaluate_x1,
    fit,
    forcing_gram,
    forcing_norm_sq,
    kernel_matrix,
    measure_series,
    recovery_derivative,
)
from superkrylov.dynamics import _F, eigenbasis_weights

from superkrylov.minimax import (
    MAX_CHAIN_ORDER,
    MinimaxFit,
    _kernel_overlaps,
    _overlap,
    fit_batch,
)
from superkrylov.experiments import ExperimentConfig, build_context
from superkrylov.measurement import sample_grid

from _bvp_oracle import certificate_oracle
from _kernel_reference import overlap_reference

T_STAR, DT, TAU = 0.5, 0.15, 1.0
X_IN = np.array([1.0, 0.0, -2.0])  # cos^2 signal: value 1, slope 0, curvature -2


def toy_grid(D):
    lo, hi = T_STAR - DT, T_STAR + DT
    h = (hi - lo) / D
    return lo + h / 2 + h * np.arange(D)


def toy_series(D, theta=0.0, seed=None):
    ts = toy_grid(D)
    y = np.cos(ts) ** 2
    if theta > 0:
        y = y + np.random.default_rng(seed).normal(0, theta, D)
    return ts, y


def toy_model(q=1.0, r=1e12):
    budget = NoiseBudget(1 / (2 * q), 1 / (2 * r))
    return EstimatorModel(X_IN, TAU, budget)


def poly_overlap(a, p, b, q):
    """Reference: expand (a-s)^p (b-s)^q with numpy.polynomial and integrate."""
    P = np.polynomial.polynomial
    prod = P.polymul(P.polypow([a, -1.0], p), P.polypow([b, -1.0], q))
    return P.polyval(min(a, b), P.polyint(prod))


class TestOverlap:
    @pytest.mark.parametrize("a, b", [(0.3, 0.8), (0.8, 0.3), (0.6, 0.6),
                                      (0.0, 0.7), (0.7, 0.0)])
    @pytest.mark.parametrize("p, q", [(2, 2), (0, 3), (4, 1), (2, 0)])
    def test_scalar_matches_polynomial_integral(self, a, b, p, q):
        ref = poly_overlap(a, p, b, q)
        assert abs(_overlap(a, p, b, q) - ref) <= 1e-13 * abs(ref)

    def test_broadcast_matches_polynomial_integral(self):
        # the powers are integers; the times broadcast, a zero bound included
        ts = np.array([0.0, 0.1, 0.35, 0.6, 0.9])
        for p in range(4):
            got = _overlap(ts[:, None], p, ts, 3 - p)
            assert got.shape == (5, 5)
            ref = [[poly_overlap(a, p, b, 3 - p) for b in ts] for a in ts]
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_matches_broadcast_arrays_reference(self):
        # the integer-power routine agrees with the earlier array-power form
        # to rounding at the shapes the pipeline passes: the forcing Gram,
        # every component's representer at t* and at a knot, and ||kappa||^2
        for D in (5, 10, 20, 40, 80):
            ts = sample_grid(T_STAR, DT, D)
            for M in range(2, 9):
                cases = [(ts, M - 1, ts[:, None], M - 1)]
                for n in range(M):
                    cases += [(ts, M - 1, t, n) for t in (T_STAR, float(ts[1]))]
                    cases.append((T_STAR, n, T_STAR, n))
                for a, p, b, q in cases:
                    got, ref = _overlap(a, p, b, q), overlap_reference(a, p, b, q)
                    assert got.shape == ref.shape
                    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


class TestModel:
    def test_order_is_length_of_x_in(self):
        assert toy_model().M == 3
        assert EstimatorModel(np.zeros(5), TAU, toy_model().budget).M == 5

    @pytest.mark.parametrize("x_in", [[[1.0, 0.0], [0.0, -2.0]], [1.0], [],
                                      np.zeros(MAX_CHAIN_ORDER + 1)],
                             ids=["2-D", "length 1", "empty", "too long"])
    def test_x_in_must_be_1d_of_length_two_or_more(self, x_in):
        with pytest.raises(InvalidInput, match="x_in must be a 1-D array of 2 to 99"):
            EstimatorModel(x_in, TAU, toy_model().budget)

    def test_chain_order_limit_is_the_last_finite_gram_denominator(self):
        # ((M-1)!)^2 divides every forcing-Gram entry, so it must be a
        # finite float64; past the limit it is not even convertible
        M = MAX_CHAIN_ORDER
        assert M == 99
        assert factorial(M - 1) ** 2 <= sys.float_info.max < factorial(M) ** 2
        with pytest.raises(OverflowError):
            float(factorial(M) ** 2)
        model = EstimatorModel(np.zeros(M), TAU, toy_model().budget)
        assert np.all(np.isfinite(forcing_gram(model, [0.1, 0.2, 0.4])))


class TestKernelMatrix:
    def test_unit_value(self):
        model = toy_model()
        k = kernel_matrix(model, np.array([0.3, 1.0 - 1e-9]))
        # diagonal entry at t=1: 1 + 1/3 + 1/20
        assert abs(k[1, 1] - (1 + 1 / 3 + 1 / 20)) < 1e-8

    def test_positive_semidefinite(self):
        model = toy_model()
        rng = np.random.default_rng(0)
        for _ in range(20):
            ts = np.sort(rng.uniform(0.01, 0.95, size=8))
            ts += np.arange(8) * 1e-6  # guarantee strict increase
            k = kernel_matrix(model, ts)
            assert np.linalg.eigvalsh(k)[0] > -1e-12
            np.testing.assert_allclose(k, k.T, atol=1e-14)

    def test_zero_timepoint_gives_zero_row(self):
        model = toy_model()
        k = kernel_matrix(model, np.array([0.0, 0.5]))
        assert np.max(np.abs(k[0])) == 0.0

    def test_forcing_gram_psd(self):
        model = toy_model()
        g = forcing_gram(model, toy_grid(10))
        assert np.linalg.eigvalsh(g)[0] > -1e-14

    def test_horizon_enforced(self):
        model = toy_model()
        with pytest.raises(InvalidInput, match="must lie below tau"):
            kernel_matrix(model, np.array([0.5, 1.5]))


class TestFit:
    def test_homogeneous_data_gives_zero_beta(self):
        model = toy_model(q=1.0, r=1.0)
        ts = toy_grid(6)
        y = np.array([model.homogeneous(t) for t in ts])
        f = fit(model, ts, y)
        np.testing.assert_allclose(f.beta, 0.0, atol=1e-12)

    def test_residual_invariant(self):
        ts, y = toy_series(15, theta=1e-3, seed=1)
        f = fit(toy_model(), ts, y)
        y_tilde = y - np.array([f.model.homogeneous(t) for t in ts])
        budget = f.model.budget
        system = budget.q / budget.r * np.eye(ts.size) + forcing_gram(f.model, ts)
        residual = np.linalg.norm(system @ f.beta - y_tilde)
        assert residual < 1e-10 * max(np.linalg.norm(y_tilde), 1.0)

    def test_zero_noise_convergence_in_D(self):
        errs = []
        for D in (5, 10, 20, 40):
            f = fit(toy_model(), *toy_series(D))
            errs.append(abs(evaluate_x1(f, T_STAR) - (-np.sin(2 * T_STAR))))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3


class TestEvaluation:
    @pytest.fixture
    def fitted(self):
        return fit(toy_model(), *toy_series(20))

    def test_initial_conditions(self, fitted):
        assert abs(evaluate_x0(fitted, 0.0) - 1.0) < 1e-12
        assert abs(evaluate_x1(fitted, 0.0)) < 1e-12

    def test_zero_beta_gives_drift(self):
        model = toy_model()
        ts = toy_grid(4)
        f = fit(model, ts, np.array([model.homogeneous(t) for t in ts]))
        t = 0.4
        assert abs(evaluate_x1(f, t) - t * X_IN[2]) < 1e-10

    def test_knot_continuity(self, fitted):
        h = 1e-9
        for ti in fitted.timepoints[:5]:
            left = evaluate_x1(fitted, ti - h)
            right = evaluate_x1(fitted, ti + h)
            assert abs(left - right) < 1e-7

    def test_x0_derivative_is_x1(self):
        # moderate r keeps beta small so the finite difference is clean
        f = fit(toy_model(q=1.0, r=1e6), *toy_series(20))
        h = 1e-5
        for t in (0.2, 0.5, 0.8):
            fd = (evaluate_x0(f, t + h) - evaluate_x0(f, t - h)) / (2 * h)
            assert abs(fd - evaluate_x1(f, t)) < 1e-8

    def test_out_of_horizon(self, fitted):
        with pytest.raises(InvalidInput, match=r"t = 1.1 must lie in \[0, 1.0\]"):
            evaluate_x0(fitted, TAU + 0.1)
        with pytest.raises(InvalidInput, match=r"t = -0.1 must lie in \[0, 1.0\]"):
            evaluate_x1(fitted, -0.1)


class TestFitBalance:
    """Growing r chases the data; growing q smooths the reconstruction."""

    def test_data_residual_nonincreasing_in_r(self):
        ts, y = toy_series(15, theta=1e-2, seed=7)
        f_norm = 1.0
        residuals = []
        for r in (1.0, 10.0, 100.0, 1000.0):
            model = EstimatorModel(X_IN, TAU, NoiseBudget(f_norm, 1 / (2 * r)))
            f = fit(model, ts, y)
            x0 = np.array([evaluate_x0(f, t) for t in f.timepoints])
            residuals.append(float(np.sum((y - x0) ** 2)))
        assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_roughness_nonincreasing_in_q(self):
        series = toy_series(15, theta=1e-2, seed=8)
        rough = []
        for q in (0.1, 1.0, 10.0, 100.0):
            model = EstimatorModel(X_IN, TAU, NoiseBudget(1 / (2 * q), 1.0))
            f = fit(model, *series)
            rough.append(float(f.beta @ forcing_gram(model, f.timepoints) @ f.beta))
        assert all(a >= b - 1e-15 for a, b in zip(rough, rough[1:]))


class TestCertificate:
    def test_sigma_nonnegative_and_decreasing_in_r(self):
        ts = toy_grid(15)
        sigmas = []
        for r in (1.0, 10.0, 100.0):
            model = EstimatorModel(X_IN, TAU, NoiseBudget(1.0, 1 / (2 * r)))
            sigma = error_certificate(model, ts, T_STAR, 1)
            assert sigma >= 0
            sigmas.append(sigma)
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))

    def test_matches_dense_bvp_oracle(self):
        ts = toy_grid(10)
        q, r = 0.3, 15.0
        model = EstimatorModel(X_IN, TAU, NoiseBudget(1 / (2 * q), 1 / (2 * r)))
        for t_eval, comp in ((T_STAR, 1), (0.3, 0)):
            sigma = error_certificate(model, ts, t_eval, comp)
            oracle = certificate_oracle(ts, q, r, TAU, t_eval, comp, n_cells=2000)
            assert abs(sigma - oracle) / oracle < 0.01

    def test_soundness_on_noisy_toy(self):
        # with exact norms the certificate is a true worst-case bound
        rng = np.random.default_rng(9)
        ts = toy_grid(15)
        f_norm = 8 * TAU - 2 * np.sin(4 * TAU)  # ||d^3 cos^2||^2 over [0,tau]
        for _ in range(20):
            eta = rng.normal(0, 1e-2, ts.size)
            budget = NoiseBudget(f_norm, float(eta @ eta))
            model = EstimatorModel(X_IN, TAU, budget)
            f = fit(model, ts, np.cos(ts) ** 2 + eta)
            err = abs(evaluate_x1(f, T_STAR) - (-np.sin(2 * T_STAR)))
            assert error_certificate(model, ts, T_STAR, 1) >= err


def fresh_representer(model, ts, t, component):
    """The overlaps w computed directly, without the cache."""
    n = model.M - 1 - component
    return _overlap(ts, model.M - 1, t, n) / (factorial(model.M - 1) * factorial(n))


def fresh_gram(model, ts):
    """The forcing Gram computed directly, without the cache."""
    p = model.M - 1
    return _overlap(ts[:, None], p, ts, p) / factorial(p) ** 2


def _overlap_cases():
    model, ts = toy_model(), toy_grid(15)
    nudged = ts.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)  # one ulp
    order4 = EstimatorModel(np.append(X_IN, 0.0), TAU, model.budget)
    gram, rep = (model, ts), (model, ts, T_STAR, 1)
    # (first call, second call, whether they share a key); a Gram call has
    # two arguments, a representer call four
    return {
        # another budget on the same grid and order shares the Gram
        "gram-other-budget": (
            gram, (toy_model(q=3.0, r=1e4), list(ts)), True),
        "gram-grid-ulp": (gram, (model, nudged), False),
        "gram-order": (gram, (order4, ts), False),
        "gram-shorter-grid": (gram, (model, ts[:-1]), False),
        "representer-grid-as-list": (rep, (model, list(ts), T_STAR, 1), True),
        "representer-grid-ulp": (rep, (model, nudged, T_STAR, 1), False),
        "representer-order": (rep, (order4, ts, T_STAR, 1), False),
        "representer-component": (rep, (model, ts, T_STAR, 0), False),
        "representer-time": (rep, (model, ts, 0.6, 1), False),
        # column 0 of the Gram is not the representer at t_0
        "gram-vs-representer": (gram, (model, ts, ts[0], 0), False),
    }


OVERLAP_CASES = _overlap_cases()


def certificate_overlaps(model, ts, t, component):
    """The cached overlaps w, called with the arguments error_certificate
    passes."""
    return _kernel_overlaps(np.asarray(ts, dtype=float), model.M, float(t),
                            model.M - 1 - component)


def _cached_and_fresh(args):
    if len(args) == 2:
        model, ts = args
        return forcing_gram(model, ts), fresh_gram(model, np.asarray(ts))
    model, ts, t, component = args
    return (certificate_overlaps(model, ts, t, component),
            fresh_representer(model, np.asarray(ts), t, component))


@pytest.mark.parametrize("case", OVERLAP_CASES)
def test_kernel_overlap_cache_key(case):
    # every input the Gram and the representer overlaps depend on is in
    # the key, and a hit or a miss equals a fresh computation bit for bit
    first_args, second_args, same_key = OVERLAP_CASES[case]
    _kernel_overlaps.cache_clear()
    first, first_ref = _cached_and_fresh(first_args)
    second, second_ref = _cached_and_fresh(second_args)
    assert _kernel_overlaps.cache_info().misses == (1 if same_key else 2)
    assert (second is first) == same_key
    for got, ref in [(first, first_ref), (second, second_ref)]:
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable


class TestGramCache:
    def test_result_is_read_only(self):
        g = forcing_gram(toy_model(), toy_grid(15))
        with pytest.raises(ValueError):
            g[0, 0] = 1.0


class TestRepresenterCache:
    def test_result_is_read_only(self):
        w = certificate_overlaps(toy_model(), toy_grid(15), T_STAR, 0)
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_forcing_gram_equals_direct_formula():
    # forcing_gram reads G from the representer overlaps: column j is the
    # component-0 representer at t_j
    for D in (2, 5, 8, 15, 40, 80):
        ts = toy_grid(D)
        for M in (2, 3, 4, 6, 8):
            model = EstimatorModel(np.ones(M), TAU, toy_model().budget)
            g = forcing_gram(model, ts)
            assert g.tobytes() == fresh_gram(model, ts).tobytes()
            for j in (0, D - 1):
                assert g[:, j].tobytes() == fresh_representer(
                    model, ts, ts[j], 0).tobytes()


def test_fit_does_not_write_into_the_gram():
    model, (ts, y) = toy_model(), toy_series(15, theta=1e-3, seed=1)
    before = forcing_gram(model, ts).copy()
    fit(model, ts, y)
    error_certificate(model, ts, T_STAR, 1)
    assert forcing_gram(model, ts).tobytes() == before.tobytes()


def test_grid_checks_run_on_a_cached_key():
    model, ts = toy_model(), toy_grid(6)
    forcing_gram(model, ts)  # fills the cache
    # the same bytes as a 2-D grid, and a horizon the grid overruns
    with pytest.raises(InvalidInput, match="nonempty 1-D"):
        forcing_gram(model, ts.reshape(2, 3))
    short = EstimatorModel(X_IN, 0.5 * TAU, model.budget)
    with pytest.raises(InvalidInput, match="must lie below tau = 0.5"):
        forcing_gram(short, ts)
    with pytest.raises(InvalidInput, match="must lie below tau = 0.5"):
        fit(short, *toy_series(6))


@pytest.mark.parametrize("grid", [np.empty(0), toy_grid(6).reshape(2, 3)],
                         ids=["empty", "2-D"])
@pytest.mark.parametrize("call", [
    lambda grid: forcing_gram(toy_model(), grid),
    lambda grid: error_certificate(toy_model(), grid, T_STAR, 1),
], ids=["forcing_gram", "error_certificate"])
def test_grid_must_be_nonempty_1d(call, grid):
    with pytest.raises(InvalidInput, match="nonempty 1-D"):
        call(grid)


NAN = float("nan")
# case -> (error, the rule its message must state, call)
NON_FINITE_CASES = {
    "evaluate at t = nan": (
        InvalidInput, r"t = nan must lie in \[0,",
        lambda: evaluate_x0(fit(toy_model(), *toy_series(10)), NAN)),
    "certificate at t = nan": (
        InvalidInput, r"t = nan must lie in \[0,",
        lambda: error_certificate(toy_model(), toy_grid(10), NAN, 1)),
    "certificate on a grid with nan": (
        InvalidInput, "strictly increasing",
        lambda: error_certificate(toy_model(), np.array([0.3, NAN, 0.6]), T_STAR, 1)),
    "fit on a grid with a nan timepoint": (
        InvalidInput, "strictly increasing",
        lambda: fit(toy_model(), [0.1, NAN, 0.3], [1.0, 1.0, 1.0])),
    "model with tau = nan": (
        InvalidInput, "tau = nan must be positive and finite",
        lambda: EstimatorModel(X_IN, NAN, toy_model().budget)),
    "model with tau = inf": (
        InvalidInput, "tau = inf must be positive and finite",
        lambda: EstimatorModel(X_IN, np.inf, toy_model().budget)),
    "model with nan x_in": (
        InvalidInput, "finite values",
        lambda: EstimatorModel([1.0, NAN, 0.0], TAU, toy_model().budget)),
    # q and r are derived from the bounds, so these cover a nan q or an inf r
    "budget with a nan bound": (
        InvalidInput, r"bounds \(nan, 0.1\) must be finite",
        lambda: NoiseBudget(NAN, 0.1)),
    # nor can a nan q be put into a built budget (dataclasses refuses it)
    "budget with q = nan": (
        ValueError, "init=False",
        lambda: dataclasses.replace(toy_model().budget, q=NAN)),
    # the weight choice select_qr made now lives in NoiseBudget; exact data
    # takes the r = inf branch, which a nan f must not reach
    "select_qr with f_norm_sq = nan": (
        InvalidInput, r"bounds \(nan, 0.0\) must be finite",
        lambda: NoiseBudget(NAN, 0.0)),
    "budget with a nan noise bound": (
        InvalidInput, r"bounds \(1.0, nan\) must be finite",
        lambda: NoiseBudget(1.0, NAN)),
    # 1/(2 * 5e-324) overflows to r = inf
    "budget with a subnormal noise bound": (
        InvalidInput, "r = inf, which must be normal",
        lambda: NoiseBudget(0.1, 5e-324)),
}


@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_non_finite_input_rejected(case):
    error, rule, call = NON_FINITE_CASES[case]
    with pytest.raises(error, match=rule):
        call()


def _single_fit_beta(model, ts, y):
    """beta from one unstacked solve of one model's ridge system, as fit
    solved it before the batch."""
    y_tilde = y - model.homogeneous(ts)
    budget = model.budget
    system = budget.q / budget.r * np.eye(ts.size) + forcing_gram(model, ts)
    return np.linalg.solve(system, y_tilde)


def _taylor_model(M, f_norm, eta):
    x_in = np.array([(-4.0) ** (p // 2) / 2 * (p % 2 == 0) for p in range(M)])
    x_in[0] = 1.0  # cos^2 t = (1 + cos 2t) / 2
    return EstimatorModel(x_in, TAU, NoiseBudget(f_norm, eta))


class TestFitBatch:
    @pytest.mark.parametrize("M", [3, 6])
    def test_batch_equals_separate_fits_bit_for_bit(self, M):
        # k models and k noisy rows on one grid, each with its own budget
        ts = toy_grid(15)
        rng = np.random.default_rng(M)
        rows = np.cos(ts) ** 2 + rng.normal(0, 1e-3, (5, ts.size))
        models = [_taylor_model(M, f, 2 * 15 * 1e-6)
                  for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
        fits = fit_batch(models, ts, rows)
        for f, model, row in zip(fits, models, rows):
            assert f.model is model
            assert f.beta.tobytes() == _single_fit_beta(model, ts, row).tobytes()

    def test_single_row_batch_equals_a_separate_fit(self):
        series = toy_series(15, theta=1e-3, seed=1)
        model = toy_model(q=2.0, r=1e5)
        [f] = fit_batch([model], *series)
        assert f.beta.tobytes() == _single_fit_beta(model, *series).tobytes()
        assert fit(model, *series).beta.tobytes() == f.beta.tobytes()

    def test_budgets_share_one_series(self):
        # the minimax demo's three budgets fit one 1-D series
        series = toy_series(15, theta=1e-3, seed=2)
        eta0 = 2 * 15 * 1e-6
        models = [EstimatorModel(X_IN, TAU, NoiseBudget(1.0, eta))
                  for eta in (10 * eta0, eta0, 0.1 * eta0)]
        fits = fit_batch(models, *series)
        for f, model in zip(fits, models):
            assert f.beta.tobytes() == _single_fit_beta(model, *series).tobytes()

    def test_one_gram_per_batch(self, monkeypatch):
        from superkrylov import minimax

        calls = []
        gram = minimax.forcing_gram
        monkeypatch.setattr(minimax, "forcing_gram",
                            lambda *args: calls.append(args) or gram(*args))
        fit_batch([toy_model(q=q) for q in (1.0, 2.0, 3.0)], *toy_series(15))
        assert len(calls) == 1

    def test_models_must_share_the_order(self):
        series = toy_series(10)
        order4 = EstimatorModel(np.append(X_IN, 0.0), TAU, toy_model().budget)
        with pytest.raises(InvalidInput, match="order M"):
            fit_batch([toy_model(), order4], *series)
        with pytest.raises(InvalidInput, match="at least one model"):
            fit_batch([], *series)

    def test_grid_checked_against_every_horizon(self):
        short = EstimatorModel(X_IN, 0.5 * TAU, toy_model().budget)
        with pytest.raises(InvalidInput, match="must lie below tau = 0.5"):
            fit_batch([toy_model(), short], *toy_series(6))

    def test_rows_must_match_the_models(self):
        ts = toy_grid(6)
        rows = np.ones((3, ts.size))
        with pytest.raises(InvalidInput, match="3 data rows for 2 models"):
            fit_batch([toy_model(), toy_model()], ts, rows)


class TestEvaluationMemo:
    @pytest.fixture
    def fitted(self):
        return fit(toy_model(), *toy_series(15, theta=1e-3, seed=4))

    @pytest.mark.parametrize("component", [0, 1, 2])
    def test_memo_hit_equals_a_fresh_computation(self, fitted, component):
        first = evaluate_component(fitted, T_STAR, component)
        again = evaluate_component(fitted, T_STAR, component)
        # a new fit with the same weights has nothing kept
        fresh = evaluate_component(
            MinimaxFit(fitted.beta, fitted.model, fitted.timepoints),
            T_STAR, component)
        w = fresh_representer(fitted.model, fitted.timepoints, T_STAR, component)
        direct = float(fitted.model.homogeneous(T_STAR, component)
                       + fitted.beta.dot(w))
        assert np.float64(again).tobytes() == np.float64(first).tobytes()
        assert np.float64(fresh).tobytes() == np.float64(first).tobytes()
        assert np.float64(direct).tobytes() == np.float64(first).tobytes()

    def test_other_times_are_recomputed(self, fitted):
        at = {t: evaluate_x1(fitted, t) for t in (0.2, T_STAR, 0.8)}
        for t, value in at.items():
            assert evaluate_x1(fitted, t) == value
        assert len(set(at.values())) == 3

    def test_checks_run_before_the_lookup(self, fitted):
        evaluate_component(fitted, T_STAR, 1)
        with pytest.raises(InvalidInput, match="component 1.0 must be an integer"):
            evaluate_component(fitted, T_STAR, 1.0)
        evaluate_x0(fitted, TAU)
        with pytest.raises(InvalidInput, match="t = nan must lie in"):
            evaluate_x0(fitted, NAN)
        with pytest.raises(InvalidInput, match="must lie in"):
            evaluate_x0(fitted, np.nextafter(TAU, np.inf))

    def test_beta_and_timepoints_are_read_only_copies(self):
        beta, ts = np.ones(4), toy_grid(4)
        f = MinimaxFit(beta, toy_model(), ts)
        beta[0] = ts[0] = 0.0
        assert f.beta[0] == 1.0 and f.timepoints[0] != 0.0
        for array in (f.beta, f.timepoints):
            with pytest.raises(ValueError):
                array[0] = 2.0


@pytest.fixture(scope="module")
def six_site():
    """The six-site Heisenberg chain's context, gamma0 = 0.25."""
    return build_context(ExperimentConfig(n=6, model_seed=42, gamma0=0.25))


class TestGapModels:
    @pytest.mark.parametrize("M", [2, 3, 6])
    def test_matches_the_hand_recipe_bit_for_bit(self, six_site, M):
        # x_in of gap 1 from one call of F at 0, scaled by g^p, and the
        # budget of the order-M forcing norm, as the runners built them
        ctx, gaps, eta = six_site, [1, 5, 29], 3e-5
        w = eigenbasis_weights(ctx.spec, ctx.v)
        x_in_1 = _F(ctx.spec.eigenvalues, w, 0.0, range(M))[:, 0]
        x_in_1[0], x_in_1[1::2] = 1.0, 0.0
        models = GapModels(ctx.spec, ctx.v, ctx.tau, M).models(gaps, [eta])
        for g, model in zip(gaps, models):
            x_in = x_in_1 * np.array([g ** p for p in range(M)], dtype=float)
            budget = NoiseBudget(
                forcing_norm_sq(ctx.spec, ctx.v, 0, g, ctx.tau, order=M), eta)
            assert model.x_in.tobytes() == x_in.tobytes()
            assert (model.budget.q, model.budget.r) == (budget.q, budget.r)
            assert model.tau == ctx.tau

    @pytest.mark.parametrize("gap", [1, 5])
    def test_certificate_is_sound_on_the_six_site_chain(self, six_site, gap):
        # sigma >= |x1_hat(t*) - R'(t*)| in every seed (sigma 0.136 against
        # errors up to 0.057 at gap 1, 0.879 against 0.171 at gap 5).  A
        # budget from the order-2 norm, which GapModels cannot build, was
        # below the error in 20 of 20 seeds at gap 1.
        ctx, D, theta = six_site, 15, 1e-3
        grid = sample_grid(ctx.t_star, ctx.delta_t, D)
        [model] = GapModels(ctx.spec, ctx.v, ctx.tau, 3).models(
            [gap], [estimated_eta_norm_sq(D, theta)])
        sigma = error_certificate(model, grid, ctx.t_star, 1)
        truth = recovery_derivative(ctx.spec, ctx.v, 0, gap, ctx.t_star, 1)
        errors = [abs(evaluate_x1(fit(model, grid, measure_series(
            ctx.spec, ctx.v, 0, gap, grid, theta, seed=seed)), ctx.t_star) - truth)
            for seed in range(20)]
        assert max(errors) <= sigma
