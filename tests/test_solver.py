import copy

import numpy as np
import pytest

from superkrylov import (
    AllModesThresholded,
    EstimatorModel,
    HamiltonianClass,
    InvalidInput,
    KrylovPair,
    MinimaxFit,
    NoiseBudget,
    PauliHamiltonian,
    PauliString,
    RitzResult,
    SingularSystem,
    SpectralDecomposition,
    assemble_dense,
    assemble_pair_exact,
    assemble_pair_minimax,
    build_bipartite,
    build_heisenberg,
    build_initial_state,
    choose_timestep,
    eigendecompose,
    error_certificate,
    evaluate_component,
    estimated_eta_norm_sq,
    fit,
    fit_batch,
    ground_energy,
    heisenberg_chain,
    measure_series,
    noise_rate,
    sample_grid,
    threshold_solve,
)
from superkrylov.dynamics import exact_J_entry, recovery_derivative, recovery_probability
from superkrylov.experiments import (
    ExperimentConfig,
    PipelineContext,
    _exact_data,
    _fit_gaps,
    _initial_condition,
    build_context,
)
from superkrylov.measurement import forcing_norm_sq

from _kernel_reference import toeplitz_pair_reference


@pytest.fixture(scope="module")
def chain():
    ham = heisenberg_chain(4, seed=42)
    spec = eigendecompose(assemble_dense(ham))
    v = build_initial_state(spec, 0.5)
    t_star = choose_timestep(spec)
    return ham, spec, v, t_star


class TestExactAssembly:
    def test_small_pair_structure(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 2, t_star)
        assert pair.R_hat[0, 0] == 1.0 and pair.R_hat[1, 1] == 1.0
        assert pair.A_hat[0, 0] == 0.0
        # Gram entries are real (modulus squared of an overlap)
        assert pair.R_hat.dtype == pair.A_hat.dtype == np.float64
        assert pair.R_hat[0, 1] == pair.R_hat[1, 0]

    def test_zero_timestep_degenerate(self, chain):
        _, spec, v, _ = chain
        pair = assemble_pair_exact(spec, v, 4, 0.0)
        np.testing.assert_allclose(pair.R_hat, np.ones((4, 4)), atol=1e-13)
        np.testing.assert_allclose(pair.A_hat, 0.0, atol=1e-13)

    def test_entries_match_derivative_identity(self, chain):
        from superkrylov import recovery_probability

        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        h = 1e-5
        for j, k in ((0, 1), (0, 3), (1, 2)):
            fd = (recovery_probability(spec, v, j, k, t_star + h)
                  - recovery_probability(spec, v, j, k, t_star - h)) / (2 * h)
            # R_jk' = i (j - k) J_jk with J = i A_hat
            val = (k - j) * pair.A_hat[j, k]
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
        # J_0g = i a_g
        assert np.all(J.real == 0.0)
        J = J.imag
        assert np.max(np.abs(pair.A_hat[0, 1:] - J)) <= 1e-15 * np.max(np.abs(J))

    def test_hermitian(self, chain):
        # R_hat symmetric and A_hat antisymmetric: J_hat = i A_hat is Hermitian
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 6, t_star)
        np.testing.assert_array_equal(pair.R_hat, pair.R_hat.T)
        np.testing.assert_array_equal(pair.A_hat, -pair.A_hat.T)


def _fit_for_gap(spec, v, gap, t_star, D=40, theta=0.0, seed=None):
    delta_t = 0.15 * t_star
    tau = 1.5 * (t_star + delta_t)
    grid = sample_grid(t_star, delta_t, D)
    y = measure_series(spec, v, 0, gap, grid, theta, seed=seed)
    x_in = np.array([1.0, 0.0, recovery_derivative(spec, v, 0, gap, 0.0, 2)])
    f_norm = forcing_norm_sq(spec, v, 0, gap, tau, order=3)
    eta = 2 * D * theta**2
    model = EstimatorModel(x_in, tau, NoiseBudget(f_norm, eta))
    return fit(model, grid, y)


class TestToeplitzPair:
    @pytest.mark.parametrize("m", [2, 3, 17])
    def test_matches_entrywise_fill(self, m):
        # the real matrices derived from the rows have the bits of the
        # entry-by-entry fill of R_0g = r_g and A_0g = a_g, signed zeros
        # included
        rng = np.random.default_rng(m)
        r = np.r_[1.0, rng.uniform(size=m - 1)]
        a = np.r_[0.0, rng.normal(size=m - 1)]
        pair = KrylovPair(r=r, a=a)
        R, A = toeplitz_pair_reference(r, a)
        assert pair.m == m
        assert pair.R_hat.dtype == pair.A_hat.dtype == np.float64
        assert pair.R_hat.tobytes() == R.tobytes()
        assert pair.A_hat.tobytes() == A.tobytes()

    def test_rows_are_read_only_copies(self):
        r, a = np.array([1.0, 0.5]), np.array([0.0, 0.25])
        pair = KrylovPair(r=r, a=a)
        r[1] = a[1] = 0.0
        assert (pair.r[1], pair.a[1]) == (0.5, 0.25)
        with pytest.raises(ValueError):
            pair.r[1] = 0.0

    def test_matrices_are_built_once_and_read_only(self):
        pair = KrylovPair(r=[1.0, 0.5], a=[0.0, 0.25])
        assert pair.R_hat is pair.R_hat and pair.A_hat is pair.A_hat
        for X in (pair.R_hat, pair.A_hat):
            with pytest.raises(ValueError):
                X[0, 1] = 0.0

    def test_leading_is_the_leading_block(self, chain):
        _, spec, v, t_star = chain
        full = assemble_pair_exact(spec, v, 6, t_star)
        for m in range(2, 7):
            pair = full.leading(m)
            small = assemble_pair_exact(spec, v, m, t_star)
            assert pair.r.tobytes() == small.r.tobytes()
            assert pair.a.tobytes() == small.a.tobytes()
            for X, Y in ((pair.R_hat, full.R_hat), (pair.A_hat, full.A_hat)):
                assert X.tobytes() == np.ascontiguousarray(Y[:m, :m]).tobytes()
        # a numpy integer is an integer; the whole pair is its own m-pair
        for m in (np.int64(1), 6):
            assert full.leading(m).r.tobytes() == full.r[:m].tobytes()

    def test_nonzero_diagonal_of_J_rejected(self):
        with pytest.raises(InvalidInput, match=r"a\[0\] = 0.1 must be 0"):
            KrylovPair(r=[1.0, 0.5], a=[0.1, 0.2])


class TestMinimaxAssembly:
    def test_zero_noise_matches_exact(self, chain):
        _, spec, v, t_star = chain
        m = 4
        fits = [_fit_for_gap(spec, v, g, t_star) for g in range(1, m)]
        est = assemble_pair_minimax(fits, t_star)
        exact = assemble_pair_exact(spec, v, m, t_star)
        assert np.max(np.abs(est.R_hat - exact.R_hat)) < 1e-5
        assert np.max(np.abs(est.A_hat - exact.A_hat)) < 1e-4

    def test_end_to_end_small_gap(self, chain):
        ham, spec, v, t_star = chain
        fits = [_fit_for_gap(spec, v, 1, t_star, D=60)]
        pair = assemble_pair_minimax(fits, t_star)
        exact = assemble_pair_exact(spec, v, 2, t_star)
        d_est = threshold_solve(pair, 1e-12 * 2).ground_gap
        d_ref = threshold_solve(exact, 1e-12 * 2).ground_gap
        assert abs(d_est - d_ref) < 1e-4

    def test_no_fits_rejected(self, chain):
        # dimension len(fits) + 1 = 1 is rejected, as m < 2 is for the exact pair
        for fits in ([], ()):
            with pytest.raises(InvalidInput, match="need a fit for at least gap 1"):
                assemble_pair_minimax(fits, chain[3])

    def test_gram_entries_clipped(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_minimax(
            [_fit_for_gap(spec, v, g, t_star, D=10, theta=5e-2, seed=g)
             for g in range(1, 5)],
            t_star)
        assert np.max(np.abs(pair.R_hat)) <= 1.0 + 1e-15

    def test_gap_fits_give_nested_hermitian_toeplitz_pairs(self, chain):
        # R_hat symmetric and A_hat antisymmetric: J_hat = i A_hat is Hermitian
        _, spec, v, t_star = chain
        m_max = 5
        fits = [_fit_for_gap(spec, v, g, t_star, D=10, theta=1e-2, seed=g)
                for g in range(1, m_max)]
        full = assemble_pair_minimax(fits, t_star)
        assert full.m == m_max
        for X, sign in ((full.R_hat, 1.0), (full.A_hat, -1.0)):
            np.testing.assert_array_equal(X, sign * X.T)
            for j in range(m_max):
                for k in range(j, m_max):
                    assert X[j, k] == X[0, k - j]
        for m in range(2, m_max):
            pair = assemble_pair_minimax(fits[:m - 1], t_star)
            # bit for bit, signed zeros included
            for X, Y in ((pair.R_hat, full.R_hat), (pair.A_hat, full.A_hat)):
                assert X.tobytes() == np.ascontiguousarray(Y[:m, :m]).tobytes()


class TestThresholdSolve:
    def test_identity_gram(self):
        # J = i A with A = [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]]; the
        # eigenvalues of i A are 0 and +-sqrt(1^2 + 2^2 + 1^2)
        pair = KrylovPair(r=[1.0, 0.0, 0.0], a=[0.0, 1.0, 2.0])
        res = threshold_solve(pair, 0.0)
        np.testing.assert_allclose(res.ritz_values,
                                   [-np.sqrt(6), 0, np.sqrt(6)], atol=1e-14)
        assert res.kept_dim == 3

    @pytest.mark.parametrize("matrix, bad", [("R_hat", np.nan), ("J_hat", np.inf)])
    def test_non_finite_pair_rejected(self, matrix, bad, chain):
        # the pair rejects a non-finite row when it is built, so no solve
        # sees one, nor noise_rate, whose eigvalsh would not converge
        rows = {"R_hat": [1.0, 0.0, 0.0], "J_hat": [0.0, 0.0, 0.0]}
        rows[matrix][1] = bad
        exact = _pair(*chain[1:])
        for use in (lambda pair: threshold_solve(pair, 0.0),
                    lambda pair: noise_rate(pair, exact, 1.0)):
            with pytest.raises(SingularSystem):
                use(KrylovPair(r=rows["R_hat"], a=rows["J_hat"]))

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
        with pytest.raises(InvalidInput, match="needs a finite top_energy, not None"):
            ground_energy(_result([-1.0]), HamiltonianClass.CLASS1_KNOWN_TOP)

    def test_two_qubit_chain_exact(self):
        # spectrum {-3, 1, 1, 1}: gap -4, top 1, ground -3
        ham = build_heisenberg(2, {(0, 1): 1.0})
        spec = eigendecompose(assemble_dense(ham))
        v = build_initial_state(spec, 0.5)
        t_star = choose_timestep(spec)
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
        assert choose_timestep(SpectralDecomposition(np.array([0.0, np.pi]))) == 0.5

    def test_timestep_is_pi_over_twice_the_spectral_width(self, chain):
        _, spec, _, t_star = chain
        assert t_star == choose_timestep(spec) == np.pi / (2 * spec.spectral_width)

    def test_width_argument_rejected(self, chain):
        # a float was the old convention, twice the spectral width; it must
        # fail, not give a timestep
        width = 2 * chain[1].spectral_width
        with pytest.raises(AttributeError, match="spectral_width"):
            choose_timestep(width)

    def test_zero_width(self):
        with pytest.raises(InvalidInput, match="width 0.0 must be positive and finite"):
            choose_timestep(SpectralDecomposition(np.array([1.0, 1.0])))

    def test_identical_pairs_zero_rate(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        assert noise_rate(pair, pair, 1.0) == 0.0

    def test_single_entry_perturbation(self, chain):
        _, spec, v, t_star = chain
        pair = assemble_pair_exact(spec, v, 4, t_star)
        r = pair.r.copy()
        eps = 1e-3
        # the largest gap appears only at (0, 3) and (3, 0)
        r[3] += eps
        other = KrylovPair(r=r, a=pair.a)
        # symmetric rank-2 perturbation has spectral norm exactly eps
        assert abs(noise_rate(other, pair, 1.0) - eps) < 1e-12

    def test_dimension_mismatch(self, chain):
        _, spec, v, t_star = chain
        a = assemble_pair_exact(spec, v, 3, t_star)
        b = assemble_pair_exact(spec, v, 4, t_star)
        with pytest.raises(InvalidInput, match="Krylov dimensions 3 and 4 must match"):
            noise_rate(a, b, 1.0)


def _svd_noise_rate(est, exact, j_norm):
    """omega with both spectral norms from the SVD; ||i X||_2 = ||X||_2."""
    return (np.linalg.norm(est.R_hat - exact.R_hat, 2)
            + np.linalg.norm(est.A_hat - exact.A_hat, 2) / j_norm)


def _random_toeplitz_pair(rng, m):
    # a real symmetric R and J = i A with A real antisymmetric, the only
    # pairs a KrylovPair holds
    r, a = rng.normal(size=(2, m))
    a[0] = 0.0
    return KrylovPair(r=r, a=a)


@pytest.mark.parametrize("m", range(2, 41))
def test_noise_rate_matches_svd_norms_on_random_pairs(m):
    rng = np.random.default_rng(m)
    est, exact = _random_toeplitz_pair(rng, m), _random_toeplitz_pair(rng, m)
    ref = _svd_noise_rate(est, exact, 3.0)
    assert abs(noise_rate(est, exact, 3.0) - ref) <= 1e-13 * ref


def test_noise_rate_matches_svd_norms_on_a_minimax_pair():
    cfg = ExperimentConfig(n=4, m_values=list(range(2, 13)), theta_values=[1e-3])
    ctx = build_context(cfg)
    exact = _exact_data(ctx, cfg.D, range(1, max(cfg.m_values)),
                        _initial_condition(ctx, cfg))
    fits = _fit_gaps(ctx, cfg, exact, 1e-3, 0)
    est = assemble_pair_minimax(fits, ctx.t_star)
    exact = assemble_pair_exact(ctx.spec, ctx.v, est.m, ctx.t_star)
    j_norm = 2.0 * ctx.spec.spectral_width
    ref = _svd_noise_rate(est, exact, j_norm)
    assert ref > 0
    assert abs(noise_rate(est, exact, j_norm) - ref) <= 1e-13 * ref


NAN = float("nan")


def _pair(spec, v, t_star):
    return assemble_pair_exact(spec, v, 3, t_star)


# case -> (the rule its message must state, call on (spec, v, t_star)) for
# each rejected scalar or shape, all raising InvalidInput; every comparison
# is written so that a NaN fails it
BAD_INPUT_CASES = {
    "sample_grid with t_star = nan": (
        "must be finite and lie in t > 0",
        lambda s, v, t: sample_grid(NAN, 0.1, 5)),
    "sample_grid with delta_t = nan": (
        "delta_t = nan must be positive and finite",
        lambda s, v, t: sample_grid(1.0, NAN, 5)),
    "sample_grid with D = 2.5": (
        "count D = 2.5 must be an integer >= 2",
        lambda s, v, t: sample_grid(1.0, 0.1, 2.5)),
    "sample_grid with D = nan": (
        "count D = nan must be an integer >= 2",
        lambda s, v, t: sample_grid(1.0, 0.1, NAN)),
    "measure_series with theta = nan": (
        "theta = nan must be nonnegative and finite",
        lambda s, v, t: measure_series(s, v, 0, 1, [0.1, 0.2], NAN)),
    "measure_series with theta < 0": (
        "theta = -0.001 must be nonnegative",
        lambda s, v, t: measure_series(s, v, 0, 1, [0.1, 0.2], -1e-3)),
    "measure_series on a decreasing grid": (
        "strictly increasing",
        lambda s, v, t: measure_series(s, v, 0, 1, [0.3, 0.2], 0.0)),
    "measure_series at a scalar time": (
        "need a 1-D grid with D >= 2",
        lambda s, v, t: measure_series(s, v, 0, 1, 0.3, 0.0)),
    "estimated_eta_norm_sq with theta = nan": (
        "theta = nan must be nonnegative and finite",
        lambda s, v, t: estimated_eta_norm_sq(5, NAN)),
    "estimated_eta_norm_sq with theta < 0": (
        "theta = -0.001 must be nonnegative",
        lambda s, v, t: estimated_eta_norm_sq(5, -1e-3)),
    "estimated_eta_norm_sq with D = 0": (
        "D = 0 must be a positive integer",
        lambda s, v, t: estimated_eta_norm_sq(0, 1e-3)),
    "estimated_eta_norm_sq with D = nan": (
        "D = nan must be a positive integer",
        lambda s, v, t: estimated_eta_norm_sq(NAN, 1e-3)),
    "estimated_eta_norm_sq with D = 2.5": (
        "D = 2.5 must be a positive integer",
        lambda s, v, t: estimated_eta_norm_sq(2.5, 1e-3)),
    "forcing_norm_sq with tau = nan": (
        "tau = nan must be positive and finite",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 1, NAN, order=3)),
    "forcing_norm_sq with tau = inf": (
        "tau = inf must be positive and finite",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 1, np.inf, order=3)),
    "forcing_norm_sq with tau = 0": (
        "tau = 0.0 must be positive and finite",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 1, 0.0, order=3)),
    "recovery_derivative with order = 1.5": (
        "derivative orders must be nonnegative integers",
        lambda s, v, t: recovery_derivative(s, v, 0, 1, 0.3, 1.5)),
    # 2.0 and 2 are one cache key
    "recovery_derivative with order = 2.0": (
        "derivative orders must be nonnegative integers",
        lambda s, v, t: [recovery_derivative(s, v, 0, 1, 0.3, order)
                         for order in (2, 2.0)]),
    "forcing_norm_sq with order = 1.5": (
        "derivative orders must be nonnegative integers",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 1, 0.5, order=1.5)),
    "forcing_norm_sq with order = 3.0": (
        "derivative orders must be nonnegative integers",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 1, 0.5, order=3.0)),
    # a bool is an Integral to Python, but not a derivative order or an index
    "forcing_norm_sq with order = True": (
        "derivative orders must be nonnegative integers",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 1, 0.5, order=True)),
    "recovery_derivative with order = True": (
        "derivative orders must be nonnegative integers",
        lambda s, v, t: recovery_derivative(s, v, 0, 1, 0.3, True)),
    # a fractional index would be a fractional gap
    "recovery_probability with k = 1.5": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: recovery_probability(s, v, 0, 1.5, 0.3)),
    "recovery_probability with j = 0.0": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: recovery_probability(s, v, 0.0, 1, 0.3)),
    "recovery_probability with k = True": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: recovery_probability(s, v, 0, True, 0.3)),
    "recovery_derivative with k = 2.0": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: recovery_derivative(s, v, 0, 2.0, 0.3, 1)),
    "exact_J_entry with j = 0.5": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: exact_J_entry(s, v, 0.5, 2, 0.3)),
    "forcing_norm_sq with k = 2.0": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: forcing_norm_sq(s, v, 0, 2.0, 0.5, order=3)),
    "forcing_norm_sq with j = k = 1.0": (
        "Krylov indices must be nonnegative integers",
        lambda s, v, t: forcing_norm_sq(s, v, 1.0, 1.0, 0.5, order=0)),
    "evaluate_component with component = 0.5": (
        "component 0.5 must be an integer",
        lambda s, v, t: evaluate_component(
            _fit_for_gap(s, v, 1, t, D=10), t, 0.5)),
    # 1.0 and 1 are one cache key
    "evaluate_component with component = 1.0": (
        "component 1.0 must be an integer",
        lambda s, v, t: [evaluate_component(f, t, component)
                         for f in [_fit_for_gap(s, v, 1, t, D=10)]
                         for component in (1, 1.0)]),
    "error_certificate with component = 1.0": (
        "component 1.0 must be an integer",
        lambda s, v, t: [error_certificate(f.model, f.timepoints, t, c)
                         for f in [_fit_for_gap(s, v, 1, t, D=10)]
                         for c in (1, 1.0)]),
    "choose_timestep with width = nan": (
        "width nan must be positive and finite",
        lambda s, v, t: choose_timestep(SpectralDecomposition(np.r_[0.0, NAN]))),
    "noise_rate with norm = nan": (
        "j_spectral_norm = nan must be positive",
        lambda s, v, t: noise_rate(_pair(s, v, t), _pair(s, v, t), NAN)),
    "noise_rate with norm = 0": (
        "j_spectral_norm = 0.0 must be positive",
        lambda s, v, t: noise_rate(_pair(s, v, t), _pair(s, v, t), 0.0)),
    "threshold_solve with eps = nan": (
        "eps = nan must be nonnegative",
        lambda s, v, t: threshold_solve(_pair(s, v, t), NAN)),
    "threshold_solve with eps < 0": (
        "eps = -1.0 must be nonnegative",
        lambda s, v, t: threshold_solve(_pair(s, v, t), -1.0)),
    "KrylovPair with 2-D rows": (
        "pair rows must be 1-D, nonempty and of one length",
        lambda s, v, t: KrylovPair(
            r=np.ones((2, 3)), a=np.zeros((2, 3)))),
    "KrylovPair with empty rows": (
        "pair rows must be 1-D, nonempty and of one length",
        lambda s, v, t: KrylovPair(r=[], a=[])),
    "KrylovPair with mismatched matrices": (
        "pair rows must be 1-D, nonempty and of one length",
        lambda s, v, t: KrylovPair(
            r=np.ones(3), a=np.zeros(2))),
    # a leading block lies inside the pair and has at least one row
    "KrylovPair.leading with m > pair.m": (
        r"m = 50 must be an integer in \[1, 3\]",
        lambda s, v, t: _pair(s, v, t).leading(50)),
    "KrylovPair.leading with m = -1": (
        r"m = -1 must be an integer in \[1, 3\]",
        lambda s, v, t: _pair(s, v, t).leading(-1)),
    "KrylovPair.leading with m = 2.0": (
        r"m = 2.0 must be an integer in \[1, 3\]",
        lambda s, v, t: _pair(s, v, t).leading(2.0)),
    "KrylovPair.leading with m = True": (
        r"m = True must be an integer in \[1, 3\]",
        lambda s, v, t: _pair(s, v, t).leading(True)),
    "assemble_pair_exact with m = 3.5": (
        "Krylov dimension m = 3.5 must be an integer >= 2",
        lambda s, v, t: assemble_pair_exact(s, v, 3.5, t)),
    "assemble_pair_exact with m = float64(4.0)": (
        "Krylov dimension m = .*4.0.* must be an integer",
        lambda s, v, t: assemble_pair_exact(s, v, np.float64(4.0), t)),
    "evaluate_component with component = True": (
        "component True must be an integer",
        lambda s, v, t: evaluate_component(
            _fit_for_gap(s, v, 1, t, D=10), t, True)),
    "error_certificate with component = True": (
        "component True must be an integer",
        lambda s, v, t: [error_certificate(f.model, f.timepoints, t, True)
                         for f in [_fit_for_gap(s, v, 1, t, D=10)]]),
    "fit on a decreasing grid": (
        "strictly increasing",
        lambda s, v, t: fit(_model(), [0.3, 0.2], [1.0, 1.0])),
    "fit_batch with values of the wrong length": (
        r"need a 1-D grid with D >= 2 and values of shape \(D,\) or \(k, D\)",
        lambda s, v, t: fit_batch([_model()], [0.1, 0.2, 0.3], [1.0, 1.0])),
    "fit_batch with a nan value": (
        "measurement values must be finite",
        lambda s, v, t: fit_batch([_model()], [0.1, 0.2], [1.0, NAN])),
    "fit_batch on a one-point grid": (
        "need a 1-D grid with D >= 2",
        lambda s, v, t: fit_batch([_model()], [0.1], [1.0])),
    "ground_energy of a generic Hamiltonian": (
        "no ground-energy rule for generic",
        lambda s, v, t: ground_energy(_result([-1.0]), HamiltonianClass.GENERIC)),
    "PauliString with label XQ": (
        "Pauli label 'XQ' must be a word over IXYZ",
        lambda s, v, t: PauliString("XQ", 1.0)),
    # a qubit count is an integer, as an index is; a bool is not one
    "PauliHamiltonian with n_qubits = 2.5": (
        "n_qubits = 2.5 must be an integer >= 1",
        lambda s, v, t: PauliHamiltonian(2.5, ())),
    "PauliHamiltonian with n_qubits = True": (
        "n_qubits = True must be an integer >= 1",
        lambda s, v, t: PauliHamiltonian(True, ())),
    "build_bipartite with n_per_side = 1.5": (
        "n_per_side = 1.5 must be an integer >= 1",
        lambda s, v, t: build_bipartite(1.5, {}, {}, {})),
    "build_bipartite with n_per_side = 1.0": (
        "n_per_side = 1.0 must be an integer >= 1",
        lambda s, v, t: build_bipartite(1.0, {(0, 1): 1.0}, {}, {})),
    "build_heisenberg with n = 2.0": (
        "n = 2.0 must be an integer >= 2",
        lambda s, v, t: build_heisenberg(2.0, {(0, 1): 1.0})),
    "heisenberg_chain with n = 2.0": (
        "n = 2.0 must be an integer >= 2",
        lambda s, v, t: heisenberg_chain(2.0)),
    "PauliString with coefficient = nan": (
        "coefficient nan must be finite",
        lambda s, v, t: PauliString("X", NAN)),
    "PauliHamiltonian with a label of the wrong length": (
        "label 'X' does not match n_qubits=2",
        lambda s, v, t: PauliHamiltonian(2, (PauliString("X", 1.0),))),
    "build_bipartite with an edge vertex out of range": (
        r"edge vertex out of range: \(0,2\)",
        lambda s, v, t: build_bipartite(1, {(0, 2): 1.0}, {}, {})),
    "build_bipartite with a field vertex out of range": (
        "field vertex 2 out of range",
        lambda s, v, t: build_bipartite(1, {}, {}, {2: 1.0})),
    "fit on a negative timepoint": (
        "timepoints must be nonnegative",
        lambda s, v, t: fit(_model(), [-0.1, 0.2], [1.0, 1.0])),
    # the rest of the weight, 1 - 2 gamma0, needs a level between the two
    "build_initial_state with gamma0 < 0.5 on two levels": (
        "gamma0 < 0.5 needs interior eigenvectors",
        lambda s, v, t: build_initial_state(
            SpectralDecomposition(np.array([-1.0, 1.0])), 0.25)),
    # R = |f_0|^2 of a state off the unit sphere is no probability, and a
    # NaN amplitude would give a NaN R
    "recovery_probability with a nan entry": (
        r"\|v\|\^2 = 1, not nan",
        lambda s, v, t: recovery_probability(s, np.r_[NAN, v[1:]], 0, 1, 0.3)),
    "recovery_probability with an inf entry": (
        r"\|v\|\^2 = 1, not inf",
        lambda s, v, t: recovery_probability(s, np.r_[np.inf, v[1:]], 0, 1, 0.3)),
    "assemble_pair_exact with |v|^2 = 9": (
        r"\|v\|\^2 = 1, not (9\.0|8\.99)",
        lambda s, v, t: assemble_pair_exact(s, 3 * v, 3, t)),
    "forcing_norm_sq with |v|^2 = 1 + 1e-9": (
        r"\|v\|\^2 = 1, not 1.00000000",
        lambda s, v, t: forcing_norm_sq(s, v * (1 + 5e-10), 0, 1, 0.5, order=3)),
    # a diagonal entry checks its state as an off-diagonal one does
    "forcing_norm_sq with a row state": (
        r"state of shape \(1, 16\) must be \(16,\)",
        lambda s, v, t: forcing_norm_sq(s, v[None, :], 0, 1, 0.5, order=3)),
    "forcing_norm_sq on the diagonal with a row state": (
        r"state of shape \(1, 16\) must be \(16,\)",
        lambda s, v, t: forcing_norm_sq(s, v[None, :], 1, 1, 0.5, order=3)),
    "ground_energy with top_energy = nan": (
        "needs a finite top_energy, not nan",
        lambda s, v, t: ground_energy(
            _result([-1.0]), HamiltonianClass.CLASS1_KNOWN_TOP, NAN)),
    "ground_energy with top_energy = inf": (
        "needs a finite top_energy, not inf",
        lambda s, v, t: ground_energy(
            _result([-1.0]), HamiltonianClass.CLASS1_KNOWN_TOP, np.inf)),
}


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_bad_input_rejected(case, chain):
    rule, call = BAD_INPUT_CASES[case]
    _, spec, v, t_star = chain
    with pytest.raises(InvalidInput, match=rule):
        call(spec, v, t_star)


def _model():
    return EstimatorModel(x_in=[1.0, 0.0], tau=1.0, budget=NoiseBudget(1.0, 1.0))


# every frozen record that holds an array
ARRAY_RECORDS = {
    SpectralDecomposition: lambda: SpectralDecomposition(np.array([-1.0, 1.0])),
    EstimatorModel: _model,
    MinimaxFit: lambda: MinimaxFit([0.1, 0.2], _model(), [0.1, 0.2]),
    KrylovPair: lambda: KrylovPair(r=[1.0, 0.5], a=[0.0, 0.2]),
    RitzResult: lambda: _result([-1.0]),
    PipelineContext: lambda: build_context(ExperimentConfig(model="heisenberg", n=2)),
}


@pytest.mark.parametrize("record", ARRAY_RECORDS, ids=lambda r: r.__name__)
def test_array_records_compare_and_hash_by_identity(record):
    # comparing their arrays would raise numpy's ambiguous-truth ValueError
    x = ARRAY_RECORDS[record]()
    assert type(x) is record
    assert isinstance(hash(x), int)
    assert x == x
    assert x != copy.copy(x)
