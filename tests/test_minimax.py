import numpy as np
import pytest

from superkrylov import (
    BadHorizon,
    EstimatorModel,
    MeasurementSeries,
    NoiseBudget,
    NonPositiveBound,
    OutOfHorizon,
    error_certificate,
    evaluate_x0,
    evaluate_x1,
    fit,
    forcing_gram,
    kernel_matrix,
    select_qr,
)

from superkrylov.minimax import _overlap

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
    return MeasurementSeries(timepoints=ts, values=y)


def toy_model(q=1.0, r=1e12):
    budget = select_qr(1 / (2 * q), 1 / (2 * r))
    return EstimatorModel(3, X_IN, TAU, budget)


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
        ts = np.array([0.0, 0.1, 0.35, 0.6, 0.9])
        p = np.arange(4)[:, None, None]
        got = _overlap(ts[:, None], p, ts, 3 - p)
        assert got.shape == (4, 5, 5)
        ref = [[[poly_overlap(a, pp, b, 3 - pp) for b in ts] for a in ts]
               for pp in range(4)]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_matches_broadcast_arrays_reference(self):
        # the routine without np.broadcast_arrays agrees with the earlier
        # form to rounding, on every argument shape the module passes
        rng = np.random.default_rng(17)
        for _ in range(40):
            D, M = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            ts = np.sort(rng.uniform(0.0, 1.0, D))
            ts[0] = 0.0  # a zero bound
            t, pw = float(rng.choice(ts)), int(rng.integers(0, M))  # t hits a knot
            cases = [
                (t, pw, float(rng.uniform()), int(rng.integers(0, M))),
                (t, pw, t, pw),
                (0.0, pw, t, M - 1),
                (t, pw, ts, M - 1),
                (ts, M - 1, t, pw),
                (ts[:, None], M - 1, ts, M - 1),
                (ts[:, None], np.arange(M)[:, None, None], ts,
                 np.arange(M)[:, None, None]),
                (ts[:, None], np.arange(M)[:, None, None], ts,
                 M - 1 - np.arange(M)[:, None, None]),
            ]
            for a, p, b, q in cases:
                got, ref = _overlap(a, p, b, q), overlap_reference(a, p, b, q)
                assert got.shape == ref.shape
                np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


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
        with pytest.raises(BadHorizon):
            kernel_matrix(model, np.array([0.5, 1.5]))


class TestFit:
    def test_homogeneous_data_gives_zero_beta(self):
        model = toy_model(q=1.0, r=1.0)
        ts = toy_grid(6)
        y = np.array([model.homogeneous(t) for t in ts])
        f = fit(model, MeasurementSeries(timepoints=ts, values=y))
        np.testing.assert_allclose(f.beta, 0.0, atol=1e-12)

    def test_residual_invariant(self):
        series = toy_series(15, theta=1e-3, seed=1)
        f = fit(toy_model(), series)
        ts = f.timepoints
        y_tilde = series.values - np.array([f.model.homogeneous(t) for t in ts])
        assert f.residual_norm < 1e-10 * max(np.linalg.norm(y_tilde), 1.0)

    def test_zero_noise_convergence_in_D(self):
        errs = []
        for D in (5, 10, 20, 40):
            f = fit(toy_model(), toy_series(D))
            errs.append(abs(evaluate_x1(f, T_STAR) - (-np.sin(2 * T_STAR))))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3


class TestEvaluation:
    @pytest.fixture
    def fitted(self):
        return fit(toy_model(), toy_series(20))

    def test_initial_conditions(self, fitted):
        assert abs(evaluate_x0(fitted, 0.0) - 1.0) < 1e-12
        assert abs(evaluate_x1(fitted, 0.0)) < 1e-12

    def test_zero_beta_gives_drift(self):
        model = toy_model()
        ts = toy_grid(4)
        f = fit(model, MeasurementSeries(
            timepoints=ts,
            values=np.array([model.homogeneous(t) for t in ts])))
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
        f = fit(toy_model(q=1.0, r=1e6), toy_series(20))
        h = 1e-5
        for t in (0.2, 0.5, 0.8):
            fd = (evaluate_x0(f, t + h) - evaluate_x0(f, t - h)) / (2 * h)
            assert abs(fd - evaluate_x1(f, t)) < 1e-8

    def test_out_of_horizon(self, fitted):
        with pytest.raises(OutOfHorizon):
            evaluate_x0(fitted, TAU + 0.1)
        with pytest.raises(OutOfHorizon):
            evaluate_x1(fitted, -0.1)


class TestFitBalance:
    """Growing r chases the data; growing q smooths the reconstruction."""

    def test_data_residual_nonincreasing_in_r(self):
        series = toy_series(15, theta=1e-2, seed=7)
        f_norm = 1.0
        residuals = []
        for r in (1.0, 10.0, 100.0, 1000.0):
            model = EstimatorModel(3, X_IN, TAU, select_qr(f_norm, 1 / (2 * r)))
            f = fit(model, series)
            x0 = np.array([evaluate_x0(f, t) for t in f.timepoints])
            residuals.append(float(np.sum((series.values - x0) ** 2)))
        assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_roughness_nonincreasing_in_q(self):
        series = toy_series(15, theta=1e-2, seed=8)
        rough = []
        for q in (0.1, 1.0, 10.0, 100.0):
            model = EstimatorModel(3, X_IN, TAU, select_qr(1 / (2 * q), 1.0))
            f = fit(model, series)
            rough.append(float(f.beta @ forcing_gram(model, f.timepoints) @ f.beta))
        assert all(a >= b - 1e-15 for a, b in zip(rough, rough[1:]))


class TestCertificate:
    def test_sigma_nonnegative_and_decreasing_in_r(self):
        ts = toy_grid(15)
        sigmas = []
        for r in (1.0, 10.0, 100.0):
            model = EstimatorModel(3, X_IN, TAU, select_qr(1.0, 1 / (2 * r)))
            sigma = error_certificate(model, ts, T_STAR, 1)
            assert sigma >= 0
            sigmas.append(sigma)
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))

    def test_matches_dense_bvp_oracle(self):
        ts = toy_grid(10)
        q, r = 0.3, 15.0
        model = EstimatorModel(3, X_IN, TAU, select_qr(1 / (2 * q), 1 / (2 * r)))
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
            series = MeasurementSeries(timepoints=ts,
                                       values=np.cos(ts) ** 2 + eta)
            budget = select_qr(f_norm, float(eta @ eta))
            model = EstimatorModel(3, X_IN, TAU, budget)
            f = fit(model, series)
            err = abs(evaluate_x1(f, T_STAR) - (-np.sin(2 * T_STAR)))
            assert error_certificate(model, ts, T_STAR, 1) >= err


NAN = float("nan")
NON_FINITE_CASES = {
    "evaluate at t = nan": (OutOfHorizon, lambda: evaluate_x0(
        fit(toy_model(), toy_series(10)), NAN)),
    "certificate at t = nan": (OutOfHorizon, lambda: error_certificate(
        toy_model(), toy_grid(10), NAN, 1)),
    "certificate on a grid with nan": (ValueError, lambda: error_certificate(
        toy_model(), np.array([0.3, NAN, 0.6]), T_STAR, 1)),
    "series with a nan timepoint": (ValueError, lambda: MeasurementSeries(
        timepoints=[0.1, NAN, 0.3], values=[1.0, 1.0, 1.0])),
    "model with tau = nan": (BadHorizon, lambda: EstimatorModel(
        3, X_IN, NAN, toy_model().budget)),
    "model with tau = inf": (BadHorizon, lambda: EstimatorModel(
        3, X_IN, np.inf, toy_model().budget)),
    "model with nan x_in": (ValueError, lambda: EstimatorModel(
        3, [1.0, NAN, 0.0], TAU, toy_model().budget)),
    "budget with q = nan": (NonPositiveBound, lambda: NoiseBudget(
        q=NAN, r=1.0, f_norm_sq_bound=0.1, eta_norm_sq_bound=0.1)),
    "budget with r = inf": (NonPositiveBound, lambda: NoiseBudget(
        q=1.0, r=np.inf, f_norm_sq_bound=0.1, eta_norm_sq_bound=0.0)),
    "budget with a nan bound": (NonPositiveBound, lambda: NoiseBudget(
        q=1.0, r=1.0, f_norm_sq_bound=NAN, eta_norm_sq_bound=0.1)),
    "select_qr with f_norm_sq = nan": (NonPositiveBound,
                                       lambda: select_qr(NAN, 0.1)),
    "select_qr with eta_norm_sq = nan": (NonPositiveBound,
                                         lambda: select_qr(1.0, NAN)),
}


@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_non_finite_input_rejected(case):
    error, call = NON_FINITE_CASES[case]
    with pytest.raises(error):
        call()
