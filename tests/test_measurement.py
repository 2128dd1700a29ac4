import numpy as np
import pytest

from superkrylov import (
    BadWindow,
    NoiseBudget,
    NonPositiveBound,
    eigendecompose,
    estimated_eta_norm_sq,
    forcing_norm_sq,
    measure_series,
    sample_grid,
    select_qr,
)
from superkrylov import measurement
from superkrylov.dynamics import recovery_derivative


@pytest.fixture
def toy():
    spec = eigendecompose(np.diag([1.0, -1.0]))
    v = np.ones(2) / np.sqrt(2)
    return spec, v


class TestSampleGrid:
    def test_inside_open_window(self):
        g = sample_grid(0.5, 0.15, 15)
        assert g.size == 15
        assert g[0] > 0.35 and g[-1] < 0.65
        assert np.allclose(np.diff(g), g[1] - g[0])

    def test_two_points(self):
        g = sample_grid(0.5, 0.15, 2)
        np.testing.assert_allclose(g, [0.5 - 0.075, 0.5 + 0.075])

    def test_odd_grid_contains_center(self):
        g = sample_grid(0.5, 0.075, 11)
        assert np.min(np.abs(g - 0.5)) < 1e-15

    def test_window_touching_zero_rejected(self):
        with pytest.raises(BadWindow):
            sample_grid(0.1, 0.1, 5)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_grid(0.5, 0.1, 1)
        with pytest.raises(ValueError):
            sample_grid(0.5, -0.1, 5)


class TestMeasureSeries:
    def test_zero_noise_is_exact(self, toy):
        spec, v = toy
        g = sample_grid(0.5, 0.15, 9)
        s = measure_series(spec, v, 0, 1, g, 0.0)
        np.testing.assert_allclose(s.values, np.cos(g) ** 2, atol=1e-13)

    def test_diagonal_pair(self, toy):
        spec, v = toy
        g = sample_grid(0.5, 0.15, 5)
        s = measure_series(spec, v, 2, 2, g, 0.01, seed=0)
        np.testing.assert_allclose(s.values, 1.0, atol=0.05)

    def test_seeded_determinism(self, toy):
        spec, v = toy
        g = sample_grid(0.5, 0.15, 7)
        a = measure_series(spec, v, 0, 1, g, 1e-2, seed=123)
        b = measure_series(spec, v, 0, 1, g, 1e-2, seed=123)
        np.testing.assert_array_equal(a.values, b.values)


class TestBudget:
    def test_equality_point(self):
        b = select_qr(1.0, 1.0)
        assert b.q == 0.5 and b.r == 0.5

    def test_halved_noise_doubles_r(self):
        b1 = select_qr(2.0, 1.0)
        b2 = select_qr(2.0, 0.5)
        assert b2.r == 2 * b1.r and b2.q == b1.q

    def test_zero_noise_caps_r(self):
        b = select_qr(4.0, 0.0)
        assert b.r == pytest.approx(1e12 * b.q)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveBound):
            select_qr(0.0, 1.0)
        with pytest.raises(NonPositiveBound):
            select_qr(1.0, -1.0)

    def test_ellipsoid_premise_enforced(self):
        with pytest.raises(NonPositiveBound):
            NoiseBudget(q=1.0, r=0.5, f_norm_sq_bound=1.0, eta_norm_sq_bound=1.0)

    def test_estimated_eta_bound_covers_realized_noise(self):
        # chi-square two-sigma construction: bound holds in >= 95% of draws
        rng = np.random.default_rng(42)
        D, theta = 15, 1e-3
        bound = estimated_eta_norm_sq(D, theta)
        hits = sum(
            float(e @ e) <= bound
            for e in (rng.normal(0, theta, D) for _ in range(100))
        )
        assert hits >= 95


class TestForcingNorm:
    def test_toy_third_derivative_norm(self, toy):
        # d^3/dt^3 cos^2(t) = 4 sin(2t); its squared L2 norm over [0, tau]
        # is 8 tau - 2 sin(4 tau)
        spec, v = toy
        tau = 1.0
        val = forcing_norm_sq(spec, v, 0, 1, tau, order=3)
        assert abs(val - (8 * tau - 2 * np.sin(4 * tau))) < 1e-10

    def test_negative_index_rejected(self, toy):
        spec, v = toy
        with pytest.raises(ValueError, match="Krylov indices must be nonnegative"):
            forcing_norm_sq(spec, v, -1, 0, 0.5)

    def test_rule_built_once_and_unchanged(self, toy, monkeypatch):
        spec, v = toy
        fresh = np.polynomial.legendre.leggauss
        calls = []

        def counting(deg):
            calls.append(deg)
            return fresh(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        measurement._gauss_legendre.cache_clear()
        first = forcing_norm_sq(spec, v, 0, 1, 0.7)
        second = forcing_norm_sq(spec, v, 0, 1, 1.3)
        assert calls == [measurement.QUADRATURE_NODES]
        # the same value as a quadrature built afresh for this call
        for tau, got in [(0.7, first), (1.3, second)]:
            x, w = fresh(measurement.QUADRATURE_NODES)
            vals = recovery_derivative(spec, v, 0, 1, 0.5 * tau * (x + 1.0), 3)
            assert got == float(np.sum(0.5 * tau * w * vals**2))
