import numpy as np
import pytest

from superkrylov import (
    DimensionCap,
    NotHermitian,
    OverlapOutOfRange,
    assemble_dense,
    build_initial_state,
    eigendecompose,
    evolve,
    exact_J_entry,
    heisenberg_chain,
    recovery_derivative,
    recovery_probability,
    vectorized_commutator_matrix,
)

from _phase_oracle import commutator_reference, recovery_reference


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture
def toy():
    """H = Z with the equal superposition: R_01(t) = cos^2(t)."""
    spec = eigendecompose(np.diag([1.0, -1.0]))
    v = np.ones(2) / np.sqrt(2)
    return spec, v


class TestEigendecompose:
    def test_diagonal(self):
        spec = eigendecompose(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [-1, 1])
        assert np.max(np.abs(np.abs(spec.eigenvectors) - np.fliplr(np.eye(2)))) < 1e-14

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 16)
        spec = eigendecompose(h)
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermiticity_tolerance_scales_with_entries(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(64, 64))
                            + 1j * rng.normal(size=(64, 64)))
        h = q @ (1e6 * assemble_dense(heisenberg_chain(6, seed=42))) @ q.conj().T
        # rounding alone leaves an asymmetry above the unscaled 1e-10
        assert np.max(np.abs(h - h.conj().T)) > 1e-10
        spec = eigendecompose(h)
        np.testing.assert_allclose(
            spec.eigenvalues, np.linalg.eigvalsh((h + h.conj().T) / 2), atol=1e-6)
        bad = h.copy()
        bad[0, 1] += 1e-6 * np.max(np.abs(h))
        with pytest.raises(NotHermitian):
            eigendecompose(bad)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 8)
        u1 = eigendecompose(h).eigenvectors
        u2 = eigendecompose(h.copy()).eigenvectors
        np.testing.assert_array_equal(u1, u2)


class TestRealEigendecomposition:
    """A real H is diagonalized in real arithmetic; the oracle does not notice."""

    @pytest.fixture(scope="class")
    def specs(self):
        h = assemble_dense(heisenberg_chain(6, seed=42))
        return eigendecompose(h), eigendecompose(h.astype(complex))

    def test_real_input_gives_real_eigenvectors(self, specs):
        real, cplx = specs
        assert real.eigenvectors.dtype == np.float64
        assert cplx.eigenvectors.dtype == np.complex128
        np.testing.assert_allclose(real.eigenvalues, cplx.eigenvalues, atol=1e-13)

    def test_sign_convention(self, specs):
        u = specs[0].eigenvectors
        largest = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert np.all(largest > 0)

    def test_oracle_agrees_on_degenerate_spectrum(self, specs):
        real, cplx = specs
        # degenerate eigenspaces: the two eigenbases differ inside them
        assert np.min(np.diff(real.eigenvalues)) < 1e-12
        rng = np.random.default_rng(14)
        fixed = rng.normal(size=real.dim)
        fixed /= np.linalg.norm(fixed)
        states = ((fixed, fixed),
                  (build_initial_state(real, 0.25), build_initial_state(cplx, 0.25)))
        ts = np.linspace(0.1, 1.5, 6)
        for vr, vc in states:
            for gap in range(1, 6):
                pairs = [(recovery_probability(real, vr, 0, gap, ts),
                          recovery_probability(cplx, vc, 0, gap, ts))]
                pairs += [(recovery_derivative(real, vr, 0, gap, ts, order),
                           recovery_derivative(cplx, vc, 0, gap, ts, order))
                          for order in (1, 2)]
                for a, b in pairs:
                    scale = max(1.0, np.max(np.abs(b)))
                    assert np.max(np.abs(a - b)) <= 1e-13 * scale, gap


class TestEvolve:
    def test_zero_time_identity(self):
        rng = np.random.default_rng(2)
        spec = eigendecompose(random_hermitian(rng, 8))
        v = random_state(rng, 8)
        np.testing.assert_allclose(evolve(spec, v, 0.0), v, atol=1e-14)

    def test_diagonal_phase(self):
        spec = eigendecompose(np.diag([1.0, -1.0]))
        out = evolve(spec, np.array([1.0, 0.0]), 0.7)
        np.testing.assert_allclose(out[0], np.exp(-1j * 0.7), atol=1e-14)

    def test_unitarity_roundtrip(self):
        rng = np.random.default_rng(3)
        spec = eigendecompose(random_hermitian(rng, 12))
        v = random_state(rng, 12)
        back = evolve(spec, evolve(spec, v, 1.3), -1.3)
        np.testing.assert_allclose(back, v, atol=1e-12)


class TestRecoveryProbability:
    def test_diagonal_is_one(self, toy):
        spec, v = toy
        assert recovery_probability(spec, v, 3, 3, 0.8) == 1.0

    def test_zero_time_is_one(self, toy):
        spec, v = toy
        assert abs(recovery_probability(spec, v, 0, 5, 0.0) - 1.0) < 1e-14

    def test_toy_closed_form(self, toy):
        spec, v = toy
        for t in np.linspace(0, 2, 17):
            r = recovery_probability(spec, v, 0, 1, t)
            assert abs(r - np.cos(t) ** 2) < 1e-13

    def test_range_and_swap_symmetry(self):
        rng = np.random.default_rng(4)
        spec = eigendecompose(random_hermitian(rng, 8))
        v = random_state(rng, 8)
        for _ in range(20):
            j, k = rng.integers(0, 6, size=2)
            t = rng.uniform(0, 2)
            r = recovery_probability(spec, v, j, k, t)
            assert 0.0 <= r <= 1.0
            assert abs(r - recovery_probability(spec, v, k, j, t)) < 1e-13

    def test_depends_only_on_gap(self):
        rng = np.random.default_rng(5)
        spec = eigendecompose(random_hermitian(rng, 8))
        v = random_state(rng, 8)
        a = recovery_probability(spec, v, 2, 5, 0.9)
        b = recovery_probability(spec, v, 0, 3, 0.9)
        assert abs(a - b) < 1e-13


class TestProjectedCommutator:
    def test_diagonal_zero(self, toy):
        spec, v = toy
        assert exact_J_entry(spec, v, 2, 2, 0.4) == 0

    def test_zero_time_zero(self, toy):
        spec, v = toy
        assert abs(exact_J_entry(spec, v, 0, 3, 0.0)) < 1e-14

    def test_purely_imaginary_hermitian_entries(self):
        rng = np.random.default_rng(6)
        spec = eigendecompose(random_hermitian(rng, 8))
        v = random_state(rng, 8)
        a = exact_J_entry(spec, v, 1, 4, 0.7)
        b = exact_J_entry(spec, v, 4, 1, 0.7)
        assert abs(a.real) < 1e-13
        assert abs(a - np.conj(b)) < 1e-13  # Hermitian index swap

    def test_toy_derivative_identity(self, toy):
        spec, v = toy
        for t in np.linspace(0, 1, 11):
            val = 1j * (0 - 1) * exact_J_entry(spec, v, 0, 1, t)
            assert abs(val - (-np.sin(2 * t))) < 1e-13
            assert abs(val.imag) < 1e-13

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        spec = eigendecompose(random_hermitian(rng, 10))
        v = random_state(rng, 10)
        h = 1e-5
        for j, k, t in [(0, 2, 0.6), (1, 4, 0.3), (0, 1, 1.1)]:
            fd = (recovery_probability(spec, v, j, k, t + h)
                  - recovery_probability(spec, v, j, k, t - h)) / (2 * h)
            val = (1j * (j - k) * exact_J_entry(spec, v, j, k, t)).real
            assert abs(fd - val) < 1e-7


class TestNegativeIndices:
    @pytest.mark.parametrize("oracle", [
        lambda spec, v, j, k: recovery_probability(spec, v, j, k, 0.1),
        lambda spec, v, j, k: recovery_derivative(spec, v, j, k, 0.1, 1),
        lambda spec, v, j, k: exact_J_entry(spec, v, j, k, 0.1),
    ], ids=["probability", "derivative", "commutator"])
    @pytest.mark.parametrize("j, k", [(-1, 0), (0, -1), (-2, -2)])
    def test_rejected(self, toy, oracle, j, k):
        spec, v = toy
        with pytest.raises(ValueError, match="Krylov indices must be nonnegative"):
            oracle(spec, v, j, k)


class TestSecondDerivative:
    def test_diagonal_zero(self, toy):
        spec, v = toy
        assert recovery_derivative(spec, v, 2, 2, 0.5, 2) == 0

    def test_toy_closed_form(self, toy):
        spec, v = toy
        for t in np.linspace(0, 1, 6):
            val = recovery_derivative(spec, v, 0, 1, t, 2)
            assert abs(val - (-2 * np.cos(2 * t))) < 1e-12

    def test_initial_curvature_is_commutator_trace(self):
        # at t=0 the curvature equals (j - k)^2 Tr([H, rho]^2)
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 6)
        spec = eigendecompose(h)
        v = random_state(rng, 6)
        rho = np.outer(v, v.conj())
        comm = h @ rho - rho @ h
        j, k = 1, 3
        expected = (j - k) ** 2 * np.trace(comm @ comm).real
        assert abs(recovery_derivative(spec, v, j, k, 0.0, 2) - expected) < 1e-10

    def test_matches_central_difference(self, toy):
        spec, v = toy
        h = 1e-4
        t = 0.4
        fd = (recovery_probability(spec, v, 0, 2, t + h)
              - 2 * recovery_probability(spec, v, 0, 2, t)
              + recovery_probability(spec, v, 0, 2, t - h)) / h**2
        assert abs(fd - recovery_derivative(spec, v, 0, 2, t, 2)) < 1e-5

    def test_higher_order_derivative(self, toy):
        spec, v = toy
        # third derivative of cos^2(t) is 4 sin(2t)
        val = recovery_derivative(spec, v, 0, 1, 0.3, 3)
        assert abs(val - 4 * np.sin(0.6)) < 1e-12


class TestOracleReference:
    """The amplitude oracle against the brute-force double sum.

    H is shifted by +40 I: the double sum only sees eigenvalue differences,
    so this pins the centring that keeps powers of lam small.
    """

    GAPS = [(0, 1), (0, 3), (4, 1), (2, 9)]
    TIMES = np.linspace(0.0, 2.0, 9)

    @pytest.fixture
    def shifted(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 12) + 40.0 * np.eye(12)
        return h, eigendecompose(h), random_state(rng, 12)

    @pytest.mark.parametrize("order", range(5))
    def test_derivatives_match_double_sum(self, shifted, order):
        h, spec, v = shifted
        for j, k in self.GAPS:
            ref = np.array([recovery_reference(h, v, j, k, t, order)
                            for t in self.TIMES])
            got = recovery_derivative(spec, v, j, k, self.TIMES, order)
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))
            if order == 0:
                got = recovery_probability(spec, v, j, k, self.TIMES)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_array_calls_equal_scalar_calls(self, shifted):
        _, spec, v = shifted
        for j, k in self.GAPS + [(3, 3)]:
            scalar = [recovery_probability(spec, v, j, k, t) for t in self.TIMES]
            np.testing.assert_array_equal(
                recovery_probability(spec, v, j, k, self.TIMES), scalar)
            for order in range(5):
                scalar = [recovery_derivative(spec, v, j, k, t, order)
                          for t in self.TIMES]
                np.testing.assert_array_equal(
                    recovery_derivative(spec, v, j, k, self.TIMES, order), scalar)

    def test_commutator_matches_double_sum_and_is_imaginary(self, shifted):
        h, spec, v = shifted
        for j, k in self.GAPS:
            ref = np.array([commutator_reference(h, v, j, k, t) for t in self.TIMES])
            got = np.array([exact_J_entry(spec, v, j, k, t) for t in self.TIMES])
            assert np.all(got.real == 0)
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))


class TestInitialState:
    def test_max_overlap_equal_split(self):
        ham = heisenberg_chain(3, seed=9)
        spec = eigendecompose(assemble_dense(ham))
        v = build_initial_state(spec, 0.5)
        expected = (spec.eigenvectors[:, 0] + spec.eigenvectors[:, -1]) / np.sqrt(2)
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_partial_overlap_weights(self):
        ham = heisenberg_chain(3, seed=9)
        spec = eigendecompose(assemble_dense(ham))
        v = build_initial_state(spec, 0.25)
        c = spec.eigenvectors.conj().T @ v
        assert abs(abs(c[0]) ** 2 - 0.25) < 1e-13
        assert abs(abs(c[-1]) ** 2 - 0.25) < 1e-13
        assert abs(np.linalg.norm(v) - 1.0) < 1e-13

    def test_out_of_range_rejected(self):
        spec = eigendecompose(np.diag([1.0, -1.0, 0.0]))
        for bad in (0.0, 0.51, -0.1):
            with pytest.raises(OverlapOutOfRange):
                build_initial_state(spec, bad)


class TestVectorization:
    def test_diagonal_example(self):
        j = vectorized_commutator_matrix(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(j)),
                                   [-1, 0, 0, 1], atol=1e-12)

    def test_identity_gives_zero(self):
        assert np.max(np.abs(vectorized_commutator_matrix(np.eye(3)))) == 0

    def test_spectrum_is_pairwise_differences(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        lam = np.linalg.eigvalsh(h)
        diffs = np.sort((lam[:, None] - lam[None, :]).ravel())
        jspec = np.sort(np.linalg.eigvalsh(vectorized_commutator_matrix(h)))
        np.testing.assert_allclose(jspec, diffs, atol=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            vectorized_commutator_matrix(np.eye(17))
