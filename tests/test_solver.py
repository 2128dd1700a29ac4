import numpy as np
import pytest

from superkrylov import (
    AllModesThresholded,
    DimensionMismatch,
    EstimatorModel,
    HamiltonianClass,
    KrylovPair,
    MissingFit,
    MissingTopEnergy,
    SingularSystem,
    ZeroWidth,
    assemble_dense,
    assemble_pair_exact,
    assemble_pair_minimax,
    build_initial_state,
    choose_timestep,
    eigendecompose,
    fit,
    ground_energy,
    heisenberg_chain,
    measure_series,
    noise_rate,
    sample_grid,
    select_qr,
    threshold_solve,
)
from superkrylov.dynamics import recovery_derivative
from superkrylov.measurement import forcing_norm_sq
from superkrylov.solver import _toeplitz_pair

from _kernel_reference import toeplitz_pair_reference


@pytest.fixture(scope="module")
def chain():
    ham = heisenberg_chain(4, seed=42)
    spec = eigendecompose(assemble_dense(ham))
    v = build_initial_state(spec, 0.5)
    t_star = choose_timestep(2 * spec.spectral_width)
    return ham, spec, v, t_star


class TestExactAssembly:
    def test_small_pair_structure(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 2, t_star)
        assert pair.R_hat[0, 0] == 1.0 and pair.R_hat[1, 1] == 1.0
        assert pair.J_hat[0, 0] == 0.0
        # single-pair Gram entries are real (modulus squared of an overlap)
        assert abs(pair.R_hat[0, 1].imag) < 1e-14
        assert abs(pair.R_hat[0, 1] - pair.R_hat[1, 0]) < 1e-14

    def test_zero_timestep_degenerate(self, chain):
        _, spec, v, _ = chain
        pair = assemble_pair_exact(spec, v, 4, 0.0)
        np.testing.assert_allclose(pair.R_hat, np.ones((4, 4)), atol=1e-13)
        np.testing.assert_allclose(pair.J_hat, 0.0, atol=1e-13)

    def test_entries_match_derivative_identity(self, chain):
        from superkrylov import recovery_probability

        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        h = 1e-5
        for j, k in ((0, 1), (0, 3), (1, 2)):
            fd = (recovery_probability(spec, v, j, k, t_star + h)
                  - recovery_probability(spec, v, j, k, t_star - h)) / (2 * h)
            val = (1j * (j - k) * pair.J_hat[j, k]).real
            assert abs(fd - val) < 1e-7

    def test_one_weight_vector_per_pair(self, chain, monkeypatch):
        from superkrylov import dynamics, solver

        _, spec, v, t_star = chain
        calls = []
        weights = dynamics.eigenbasis_weights

        def counted(*args):
            calls.append(args)
            return weights(*args)

        monkeypatch.setattr(dynamics, "eigenbasis_weights", counted)
        monkeypatch.setattr(solver, "eigenbasis_weights", counted)
        assemble_pair_exact(spec, v, 12, t_star)
        assert len(calls) == 1

    def test_entries_equal_scalar_oracles(self, chain):
        from superkrylov import exact_J_entry, recovery_probability

        _, spec, v, t_star = chain
        m = 12
        pair = assemble_pair_exact(spec, v, m, t_star)
        gaps = range(1, m)
        r = np.array([recovery_probability(spec, v, 0, g, t_star) for g in gaps])
        J = np.array([exact_J_entry(spec, v, 0, g, t_star) for g in gaps])
        assert np.max(np.abs(pair.R_hat[0, 1:] - r)) <= 1e-15 * np.max(np.abs(r))
        assert np.max(np.abs(pair.J_hat[0, 1:] - J)) <= 1e-15 * np.max(np.abs(J))

    def test_hermitian(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 6, t_star)
        assert np.max(np.abs(pair.R_hat - pair.R_hat.conj().T)) < 1e-14
        assert np.max(np.abs(pair.J_hat - pair.J_hat.conj().T)) < 1e-14


def _fit_for_gap(spec, v, gap, t_star, D=40, theta=0.0, seed=None):
    delta_t = 0.15 * t_star
    tau = 1.5 * (t_star + delta_t)
    grid = sample_grid(t_star, delta_t, D)
    series = measure_series(spec, v, 0, gap, grid, theta, seed=seed)
    x_in = np.array([1.0, 0.0, recovery_derivative(spec, v, 0, gap, 0.0, 2)])
    f_norm = forcing_norm_sq(spec, v, 0, gap, tau, order=3)
    eta = 2 * D * theta**2
    model = EstimatorModel(3, x_in, tau, select_qr(f_norm, eta))
    return fit(model, series)


class TestToeplitzPair:
    @pytest.mark.parametrize("m", [2, 3, 17])
    def test_matches_entrywise_fill(self, m):
        # same bits as the entry-by-entry fill, signed zeros included
        rng = np.random.default_rng(m)
        gaps = range(1, m)
        real = {g: float(rng.uniform()) for g in gaps}
        imag = {g: complex(0.0, rng.normal()) for g in gaps}
        full = {g: complex(*rng.normal(size=2)) for g in gaps}
        for r_gap, j_gap in [(real, imag), (full, full), (imag, real)]:
            pair = _toeplitz_pair(m, r_gap, j_gap)
            R, J = toeplitz_pair_reference(m, r_gap, j_gap)
            assert pair.R_hat.dtype == R.dtype and pair.J_hat.dtype == J.dtype
            assert pair.R_hat.tobytes() == R.tobytes()
            assert pair.J_hat.tobytes() == J.tobytes()


class TestMinimaxAssembly:
    def test_zero_noise_matches_exact(self, chain):
        _, spec, v, t_star = chain
        m = 4
        fits = {g: _fit_for_gap(spec, v, g, t_star) for g in range(1, m)}
        est = assemble_pair_minimax(fits, m, t_star)
        exact = assemble_pair_exact(spec, v, m, t_star)
        assert np.max(np.abs(est.R_hat - exact.R_hat)) < 1e-5
        assert np.max(np.abs(est.J_hat - exact.J_hat)) < 1e-4

    def test_end_to_end_small_gap(self, chain):
        ham, spec, v, t_star = chain
        fits = {1: _fit_for_gap(spec, v, 1, t_star, D=60)}
        pair = assemble_pair_minimax(fits, 2, t_star)
        exact = assemble_pair_exact(spec, v, 2, t_star)
        d_est = threshold_solve(pair, 1e-12 * 2).ground_gap
        d_ref = threshold_solve(exact, 1e-12 * 2).ground_gap
        assert abs(d_est - d_ref) < 1e-4

    def test_missing_fit(self, chain):
        _, spec, v, t_star = chain
        with pytest.raises(MissingFit):
            assemble_pair_minimax({1: _fit_for_gap(spec, v, 1, t_star, D=5)},
                                  3, t_star)

    def test_gram_entries_clipped(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_minimax(
            {g: _fit_for_gap(spec, v, g, t_star, D=10, theta=5e-2, seed=g)
             for g in range(1, 5)},
            5, t_star)
        assert np.max(np.abs(pair.R_hat)) <= 1.0 + 1e-15

    def test_gap_fits_give_nested_hermitian_toeplitz_pairs(self, chain):
        _, spec, v, t_star = chain
        m_max = 5
        fits = {g: _fit_for_gap(spec, v, g, t_star, D=10, theta=1e-2, seed=g)
                for g in range(1, m_max)}
        full = assemble_pair_minimax(fits, m_max, t_star)
        for X in (full.R_hat, full.J_hat):
            np.testing.assert_array_equal(X, X.conj().T)
            for j in range(m_max):
                for k in range(j, m_max):
                    assert X[j, k] == X[0, k - j]
        for m in range(2, m_max):
            pair = assemble_pair_minimax(fits, m, t_star)
            np.testing.assert_array_equal(pair.R_hat, full.R_hat[:m, :m])
            np.testing.assert_array_equal(pair.J_hat, full.J_hat[:m, :m])


class TestThresholdSolve:
    def test_identity_gram(self):
        pair = KrylovPair(m=3, R_hat=np.eye(3, dtype=complex),
                          J_hat=np.diag([3.0, -1.0, 2.0]).astype(complex))
        res = threshold_solve(pair, 0.0)
        np.testing.assert_allclose(res.ritz_values, [-1, 2, 3], atol=1e-14)
        assert res.kept_dim == 3

    @pytest.mark.parametrize("matrix, bad", [("R_hat", np.nan), ("J_hat", np.inf)])
    def test_non_finite_pair_rejected(self, matrix, bad):
        entries = {"R_hat": np.eye(3, dtype=complex),
                   "J_hat": np.zeros((3, 3), dtype=complex)}
        entries[matrix][0, 1] = entries[matrix][1, 0] = bad
        pair = KrylovPair(m=3, **entries)
        with pytest.raises(SingularSystem):
            threshold_solve(pair, 0.0)

    def test_rank_one_gram(self, chain):
        _, spec, v, _ = chain
        pair = assemble_pair_exact(spec, v, 5, 0.0)
        res = threshold_solve(pair, 1e-12 * 5)
        assert res.kept_dim == 1
        assert abs(res.ground_gap) < 1e-12

    def test_all_modes_thresholded(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        with pytest.raises(AllModesThresholded):
            threshold_solve(pair, 1e3)

    def test_ritz_spectrum_antisymmetric(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 8, t_star)
        rv = threshold_solve(pair, 1e-12 * 8).ritz_values
        np.testing.assert_allclose(np.sort(rv), np.sort(-rv), atol=1e-8)

    def test_ritz_values_in_spectral_hull(self, chain):
        _, spec, v, t_star = chain
        gap = spec.eigenvalues[0] - spec.eigenvalues[-1]
        pair = assemble_pair_exact(spec, v, 10, t_star)
        d0 = threshold_solve(pair, 1e-11).ground_gap
        assert d0 >= gap - 1e-10 * abs(gap)


class TestGroundEnergy:
    def test_known_top_shift(self):
        res = _result([-10.0])
        assert ground_energy(res, HamiltonianClass.CLASS1_KNOWN_TOP, 4.0) == -6.0

    def test_symmetric_halving(self):
        res = _result([-3.0])
        assert ground_energy(res, HamiltonianClass.CLASS2_SYMMETRIC) == -1.5

    def test_missing_top_energy(self):
        with pytest.raises(MissingTopEnergy):
            ground_energy(_result([-1.0]), HamiltonianClass.CLASS1_KNOWN_TOP)

    def test_two_qubit_chain_exact(self):
        # spectrum {-3, 1, 1, 1}: gap -4, top 1, ground -3
        from superkrylov import build_heisenberg

        ham = build_heisenberg(2, {(0, 1): 1.0})
        spec = eigendecompose(assemble_dense(ham))
        v = build_initial_state(spec, 0.5)
        t_star = choose_timestep(2 * spec.spectral_width)
        assert abs(t_star - np.pi / 8) < 1e-14
        pair = assemble_pair_exact(spec, v, 6, t_star)
        res = threshold_solve(pair, 1e-12 * 6)
        est = ground_energy(res, ham.class_tag, ham.top_energy)
        assert abs(est - (-3.0)) < 1e-8


def _result(vals):
    from superkrylov import RitzResult

    return RitzResult(ritz_values=np.array(vals), kept_dim=len(vals))


class TestTimestepAndNoiseRate:
    def test_timestep_formula(self):
        assert choose_timestep(2 * np.pi) == 0.5

    def test_zero_width(self):
        with pytest.raises(ZeroWidth):
            choose_timestep(0.0)

    def test_identical_pairs_zero_rate(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        assert noise_rate(pair, pair, 1.0) == 0.0

    def test_single_entry_perturbation(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        R = pair.R_hat.copy()
        eps = 1e-3
        R[0, 1] += eps
        R[1, 0] += eps
        other = KrylovPair(m=4, R_hat=R, J_hat=pair.J_hat)
        # symmetric rank-2 perturbation has spectral norm exactly eps
        assert abs(noise_rate(other, pair, 1.0) - eps) < 1e-12

    def test_dimension_mismatch(self, chain):
        _, spec, v, t_star = chain
        a = assemble_pair_exact(spec, v, 3, t_star)
        b = assemble_pair_exact(spec, v, 4, t_star)
        with pytest.raises(DimensionMismatch):
            noise_rate(a, b, 1.0)
