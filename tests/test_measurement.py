import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkrylov import (
    InvalidInput,
    NoiseBudget,
    assemble_dense,
    build_initial_state,
    choose_timestep,
    eigendecompose,
    estimated_eta_norm_sq,
    forcing_norm_sq,
    heisenberg_chain,
    measure_series,
    sample_grid,
)
from superkrylov import measurement
from superkrylov.dynamics import eigenbasis_weights, recovery_derivative
from superkrylov.experiments import ExperimentConfig, build_context


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
        with pytest.raises(InvalidInput, match="must be finite and lie in t > 0"):
            sample_grid(0.1, 0.1, 5)

    def test_numpy_integer_size_accepted(self):
        np.testing.assert_array_equal(sample_grid(0.5, 0.15, np.int64(7)),
                                      sample_grid(0.5, 0.15, 7))
        assert estimated_eta_norm_sq(np.int64(5), 1e-3) == estimated_eta_norm_sq(5, 1e-3)

    @pytest.mark.parametrize("D", [True, False, 5.0])
    def test_bool_or_float_size_rejected(self, D):
        # Python counts a bool as an Integral: True would read as D = 1
        with pytest.raises(InvalidInput, match="positive integer"):
            estimated_eta_norm_sq(D, 0.1)

    def test_bad_args(self):
        with pytest.raises(InvalidInput, match="count D = 1 must be an integer >= 2"):
            sample_grid(0.5, 0.1, 1)
        with pytest.raises(InvalidInput, match="delta_t = -0.1 must be positive"):
            sample_grid(0.5, -0.1, 5)


class TestMeasureSeries:
    def test_zero_noise_is_exact(self, toy):
        spec, v = toy
        g = sample_grid(0.5, 0.15, 9)
        y = measure_series(spec, v, 0, 1, g, 0.0)
        np.testing.assert_allclose(y, np.cos(g) ** 2, atol=1e-13)

    def test_diagonal_pair(self, toy):
        spec, v = toy
        g = sample_grid(0.5, 0.15, 5)
        y = measure_series(spec, v, 2, 2, g, 0.01, seed=0)
        np.testing.assert_allclose(y, 1.0, atol=0.05)

    def test_seeded_determinism(self, toy):
        spec, v = toy
        g = sample_grid(0.5, 0.15, 7)
        a = measure_series(spec, v, 0, 1, g, 1e-2, seed=123)
        b = measure_series(spec, v, 0, 1, g, 1e-2, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_noisy_series_is_the_one_noise_model(self, toy):
        # row i is values[i] plus default_rng(seeds[i]).normal(0, theta, D),
        # byte for byte; measure_series draws through it, and theta = 0
        # keeps the values
        spec, v = toy
        g = sample_grid(0.5, 0.15, 7)
        theta, seeds = 1e-2, [11, 12, 13]
        rows = np.array([recovery_derivative(spec, v, 0, 1, g, p)
                         for p in range(3)])
        noisy = measurement._noisy_series(rows, theta, seeds)
        for row, value, seed in zip(noisy, rows, seeds):
            want = value + np.random.default_rng(seed).normal(0, theta, g.size)
            assert row.tobytes() == want.tobytes()
        assert noisy.tobytes() != rows.tobytes()
        exact = measurement._noisy_series(rows, 0.0, seeds)
        assert exact.tobytes() == rows.tobytes()
        measured = measure_series(spec, v, 0, 1, g, theta, seed=5)
        one = measurement._noisy_series(rows[0], theta, [5])
        assert measured.tobytes() == one.tobytes()


# any float, plus the edges: zero, subnormals (1/(2 b) overflows), a bound
# whose q is subnormal and would give q * b > 1/2, and one where 2 b overflows
BOUNDS = st.one_of(st.floats(), st.sampled_from(
    [0.0, 5e-324, 1e-310, 2.2781710874273644e307, 1e308]))


class TestBudget:
    def test_equality_point(self):
        b = NoiseBudget(1.0, 1.0)
        assert b.q == 0.5 and b.r == 0.5

    def test_halved_noise_doubles_r(self):
        b1 = NoiseBudget(2.0, 1.0)
        b2 = NoiseBudget(2.0, 0.5)
        assert b2.r == 2 * b1.r and b2.q == b1.q

    def test_zero_noise_gives_infinite_r(self):
        # exact data: the noise term of the premise vanishes, and the fit
        # keeps a ridge relative to its Gram matrix instead
        b = NoiseBudget(4.0, 0.0)
        assert b.r == np.inf and b.q == 0.125

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInput, match="the first positive"):
            NoiseBudget(0.0, 1.0)
        with pytest.raises(InvalidInput, match="the second nonnegative"):
            NoiseBudget(1.0, -1.0)

    def test_weights_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            NoiseBudget(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(TypeError):
            NoiseBudget(1.0, 1.0, q=0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(NoiseBudget(1.0, 1.0), q=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            NoiseBudget(1.0, 1.0).r = 1.0

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(BOUNDS, BOUNDS)
    def test_premise_holds_by_construction(self, f, eta):
        # every budget that can be built lies inside the ellipsoid premise
        try:
            b = NoiseBudget(f, eta)
        except InvalidInput:
            return
        assert 0 < b.q < np.inf and b.q * f <= 0.5
        if eta == 0:
            assert b.r == np.inf  # the noise term of the premise vanishes
        else:
            assert 0 < b.r < np.inf and b.r * eta <= 0.5

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

    def test_diagonal_entry_is_tau_then_zero(self, toy):
        # R_jj = 1, so its norm over [0, tau] is tau at order 0, else +0.0
        spec, v = toy
        got = [forcing_norm_sq(spec, v, 2, 2, 0.7, order=p) for p in (0, 1, 3)]
        assert list(map(repr, got)) == ["0.7", "0.0", "0.0"]

    def test_negative_index_rejected(self, toy):
        spec, v = toy
        with pytest.raises(InvalidInput, match="Krylov indices must be nonnegative"):
            forcing_norm_sq(spec, v, -1, 0, 0.5, order=3)

    @pytest.mark.parametrize("k", [7, 40])
    def test_norm_past_the_float_range_raises(self, k):
        # on the n=4 chain at order 99, g^(2 order - 1) times the integral of
        # F^(order)^2 overflows to inf at gap 7; at gap 40 the integer
        # 40^197 is itself past the float range
        ctx = build_context(ExperimentConfig(n=4))
        with pytest.raises(InvalidInput, match=f"j=0 k={k} order=99 is inf, beyond"):
            forcing_norm_sq(ctx.spec, ctx.v, 0, k, ctx.tau, order=99)

    def test_tabulated_rule(self, toy):
        x, w = measurement._GL_NODES, measurement._GL_WEIGHTS
        assert x.shape == w.shape == (measurement.QUADRATURE_NODES,)
        assert not x.flags.writeable and not w.flags.writeable
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        # exact to degree 2 * QUADRATURE_NODES - 1: sum w P_n(x) = 2 delta_n0,
        # with P_n from the three-term recurrence; degree 2 * QUADRATURE_NODES
        # is off by about 0.3, so the check tells a wrong rule from this one
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for n in range(2 * measurement.QUADRATURE_NODES):
            assert abs(w @ cur - (2.0 if n == 0 else 0.0)) <= 5e-14, n
            prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
        assert abs(w @ cur) > 1e-2
        # the table is leggauss's rule; another LAPACK may round it apart
        ref_x, ref_w = np.polynomial.legendre.leggauss(measurement.QUADRATURE_NODES)
        assert np.all(np.abs(x - ref_x) <= 2 * np.spacing(np.abs(ref_x)))
        assert np.all(np.abs(w - ref_w) <= 2 * np.spacing(ref_w))
        # one panel of [0, tau] integrates with the module's rule as is
        spec, v = toy
        for tau in (0.7, 1.3):
            vals = recovery_derivative(spec, v, 0, 1, 0.5 * tau * (x + 1.0), 3)
            want = float(np.sum(0.5 * tau * w * vals**2))
            assert forcing_norm_sq(spec, v, 0, 1, tau, order=3) == want


@pytest.fixture(scope="module")
def chain6():
    spec = eigendecompose(assemble_dense(heisenberg_chain(6, seed=42)))
    return spec, build_initial_state(spec, 0.25)


def _reference_norm_sq(spec, v, gap, tau, order, panels=16, nodes=600):
    x, w = np.polynomial.legendre.leggauss(nodes)
    h = tau / panels
    ts = (h * np.arange(panels)[:, None] + 0.5 * h * (x + 1.0)).ravel()
    vals = recovery_derivative(spec, v, 0, gap, ts, order)
    return float(np.sum(np.tile(0.5 * h * w, panels) * vals**2))


@pytest.mark.parametrize("order", [2, 3, 6])
@pytest.mark.parametrize("gap, delta_t_fraction", [
    (1, 0.15), (29, 0.15), (80, 0.15), (95, 0.15), (119, 0.15), (50, 0.9)])
def test_forcing_norm_exact_at_high_gaps(chain6, gap, delta_t_fraction, order):
    # the integrand's frequencies reach 2 * gap * W, so a rule sized for
    # gap 1 misses the high gaps unless it scales with the gap
    spec, v = chain6
    t_star = choose_timestep(spec)
    tau = 1.5 * (1 + delta_t_fraction) * t_star
    got = forcing_norm_sq(spec, v, 0, gap, tau, order=order)
    want = _reference_norm_sq(spec, v, gap, tau, order)
    assert abs(got - want) <= 1e-12 * want


CONTEXTS = {name: build_context(ExperimentConfig(model=model, n=n))
            for name, model, n in [("heisenberg4", "heisenberg", 4),
                                   ("bipartite2", "bipartite", 2)]}


def _rule_norm_sq(spec, v, gap, tau, order, panels):
    """The module's rule on equal panels of [0, tau], in unscaled time."""
    x, w = measurement._GL_NODES, measurement._GL_WEIGHTS
    h = tau / panels
    ts = (h * np.arange(panels)[:, None] + 0.5 * h * (x + 1.0)).ravel()
    vals = recovery_derivative(spec, v, 0, gap, ts, order)
    return float(np.sum(np.tile(0.5 * h * w, panels) * vals**2))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(sorted(CONTEXTS)), st.integers(1, 200),
       st.floats(0.01, 0.95), st.integers(0, 8))
def test_forcing_norm_converged_in_its_panels(name, gap, delta_t_fraction, order):
    # twice as many panels of the same rule, laid on [0, tau] itself rather
    # than on scaled time, must not move the norm
    ctx = CONTEXTS[name]
    tau = 1.5 * (1 + delta_t_fraction) * ctx.t_star
    per_unit = math.ceil(tau * ctx.spec.spectral_width / measurement.PANEL_PHASE)
    got = forcing_norm_sq(ctx.spec, ctx.v, 0, gap, tau, order=order)
    want = _rule_norm_sq(ctx.spec, ctx.v, gap, tau, order, 2 * gap * per_unit)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("tau_w", [None, 30.0])
def test_forcing_norm_is_the_same_in_any_call_order(tau_w):
    # every gap reads a prefix of a table whose length is a power of two,
    # so which table a gap reads must not change a bit of its norm
    ctx = CONTEXTS["heisenberg4"]
    tau = ctx.tau if tau_w is None else tau_w / ctx.spec.spectral_width
    gaps = range(1, 41)

    def norms(order, clear=False):
        got = {}
        for g in order:
            if clear:
                measurement._panel_table.cache_clear()
            got[g] = forcing_norm_sq(ctx.spec, ctx.v, 0, g, tau, order=3)
        return got

    measurement._panel_table.cache_clear()
    ascending = norms(gaps)
    measurement._panel_table.cache_clear()
    assert norms(reversed(gaps)) == ascending
    assert norms(gaps, clear=True) == ascending
    lam, w = ctx.spec.eigenvalues, eigenbasis_weights(ctx.spec, ctx.v)
    table = measurement._panel_table.__wrapped__
    for count in (1, 2, 3, 8, 40):
        short = table(lam, w, 0.37 * tau, 3, count)
        assert table(lam, w, 0.37 * tau, 3, 2 * count)[:count].tobytes() == short.tobytes()


def test_indices_and_orders_may_be_numpy_integers():
    ctx = CONTEXTS["heisenberg4"]
    spec, v, tau = ctx.spec, ctx.v, ctx.tau
    j, k, order = np.int64(2), np.int32(7), np.int64(3)
    assert forcing_norm_sq(spec, v, j, k, tau, order) == forcing_norm_sq(
        spec, v, 2, 7, tau, 3)
    assert recovery_derivative(spec, v, j, k, 0.3, order) == recovery_derivative(
        spec, v, 2, 7, 0.3, 3)
