import dataclasses
import tracemalloc

import numpy as np
import pytest

from superkrylov import (
    InvalidInput,
    assemble_dense,
    assemble_pair_exact,
    build_initial_state,
    eigendecompose,
    exact_J_entry,
    forcing_norm_sq,
    heisenberg_chain,
    recovery_derivative,
    recovery_probability,
)

from _phase_oracle import (
    commutator_reference,
    recovery_reference,
    vectorized_commutator_matrix,
)
from superkrylov.dynamics import (
    SpectralDecomposition,
    _F,
    _amplitudes,
    _entry_scale_and_asymmetry,
    eigenbasis_weights,
    spectral_measure,
)


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

    def test_eigenvalues_only(self):
        assert [f.name for f in dataclasses.fields(SpectralDecomposition)] == [
            "eigenvalues"]
        with pytest.raises(TypeError):
            eigendecompose(np.diag([1.0, -1.0]), vectors=True)

    @pytest.mark.parametrize("real", [True, False])
    def test_not_hermitian_rejected(self, real):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=float if real else complex)
        with pytest.raises(InvalidInput, match="matrix is not Hermitian: asymmetry"):
            eigendecompose(h)

    @pytest.mark.parametrize("past_first_strip", [True, False])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, past_first_strip, dtype, bad):
        # Python's max drops a NaN from the strip maxima, and eigvalsh turns
        # an inf into NaN eigenvalues: neither may reach a spectrum
        if past_first_strip:
            # an entry past the first strip is named by its row in h
            h = np.eye(100, dtype=dtype)
            h[70, 3] = h[3, 70] = bad
            where = r"\[\[3, 70\]\]$"
        else:
            h = np.diag([0.0, 1.0]).astype(dtype)
            h[1, 1] = bad
            where = r"\[\[1, 1\]\]$"
        with pytest.raises(InvalidInput, match="non-finite .* " + where):
            eigendecompose(h)

    @pytest.mark.parametrize("real", [True, False])
    def test_hermiticity_tolerance_scales_with_entries(self, real):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(64, 64))
        q, _ = np.linalg.qr(a if real else a + 1j * rng.normal(size=(64, 64)))
        h = q @ (1e6 * assemble_dense(heisenberg_chain(6, seed=42))) @ q.conj().T
        # rounding alone leaves an asymmetry above the unscaled 1e-10
        assert np.max(np.abs(h - h.conj().T)) > 1e-10
        spec = eigendecompose(h)
        np.testing.assert_allclose(
            spec.eigenvalues, np.linalg.eigvalsh((h + h.conj().T) / 2), atol=1e-6)
        bad = h.copy()
        bad[0, 1] += 1e-6 * np.max(np.abs(h))
        with pytest.raises(InvalidInput, match="matrix is not Hermitian: asymmetry"):
            eigendecompose(bad)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_non_square_or_empty_rejected(self, shape):
        with pytest.raises(InvalidInput, match="must be nonempty and square"):
            eigendecompose(np.zeros(shape))

    def test_strip_check_equals_dense_check(self):
        # 100 rows: the last strip is partial
        rng = np.random.default_rng(5)
        h = rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100))
        scale, asymmetry = _entry_scale_and_asymmetry(h)
        assert scale == np.max(np.abs(h))
        assert asymmetry == np.max(np.abs(h - h.conj().T))


class TestRealEigendecomposition:
    """A real H is diagonalized in real arithmetic; the oracle does not notice."""

    @pytest.fixture(scope="class")
    def specs(self):
        h = assemble_dense(heisenberg_chain(6, seed=42))
        return eigendecompose(h), eigendecompose(h.astype(complex))

    def test_real_and_complex_input_give_one_spectrum(self, specs):
        real, cplx = specs
        np.testing.assert_allclose(real.eigenvalues, cplx.eigenvalues, atol=1e-13)

    def test_oracle_agrees_on_degenerate_spectrum(self, specs):
        real, cplx = specs
        # a degenerate spectrum, on which real and complex eigvalsh agree
        # only to rounding
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


class TestRecoveryProbability:
    def test_diagonal_is_one(self, toy, shifted):
        for spec, v in (toy, shifted[1:]):
            assert recovery_probability(spec, v, 3, 3, 0.8) == 1.0
            # so the norm of R_jj over [0, tau] is tau, exactly
            assert forcing_norm_sq(spec, v, 3, 3, 0.7, 0) == 0.7

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
        with pytest.raises(InvalidInput, match="Krylov indices must be nonnegative"):
            oracle(spec, v, j, k)


# every oracle, with the diagonal entries that take a shortcut past the
# amplitudes
ORACLES = {
    "probability": lambda spec, v, t: recovery_probability(spec, v, 0, 1, t),
    "derivative": lambda spec, v, t: recovery_derivative(spec, v, 0, 1, t, 1),
    "commutator": lambda spec, v, t: exact_J_entry(spec, v, 0, 1, t),
    "exact pair": lambda spec, v, t: assemble_pair_exact(spec, v, 3, t),
    "diagonal probability": lambda spec, v, t: recovery_probability(
        spec, v, 1, 1, t),
    "diagonal derivative": lambda spec, v, t: recovery_derivative(
        spec, v, 1, 1, t, 1),
    "diagonal commutator": lambda spec, v, t: exact_J_entry(spec, v, 2, 2, t),
}


class TestNonFiniteTime:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("t", [np.nan, np.inf, np.array([0.1, np.nan])],
                             ids=["nan", "inf", "array with nan"])
    def test_rejected(self, toy, oracle, t):
        spec, v = toy
        with pytest.raises(InvalidInput, match="times must be finite"):
            ORACLES[oracle](spec, v, t)

    def test_negative_time_is_valid(self, toy):
        # R is even in t
        spec, v = toy
        assert recovery_probability(spec, v, 0, 1, -0.3) == pytest.approx(
            recovery_probability(spec, v, 0, 1, 0.3), rel=1e-15)


class TestStateShape:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 1)],
                             ids=["too long", "row", "column"])
    def test_rejected(self, toy, oracle, shape):
        spec, v = toy
        bad = np.resize(v, shape)
        with pytest.raises(InvalidInput, match=r"state of shape .* must be \(2,\)"):
            ORACLES[oracle](spec, bad, 0.3)


def fresh_amplitudes(spec, w, s, order):
    """The amplitudes computed directly, as a reference for the kernel."""
    lam = spec.eigenvalues - 0.5 * (spec.eigenvalues[0] + spec.eigenvalues[-1])
    z = 1j * -lam
    phases = np.exp(np.multiply.outer(np.atleast_1d(s), z))
    coef = w * z ** np.arange(order + 1)[:, None]
    return np.stack([np.sum(phases * row, axis=-1) for row in coef])


@pytest.mark.parametrize("s, shape", [
    (0.8, (1,)),
    ([0.8, 0.3], (2,)),
    (np.linspace(0.1, 1.0, 7), (7,)),
    # the series of two gaps on one grid
    (np.multiply.outer([1.0, 2.0], np.linspace(0.1, 1.0, 3)), (2, 3)),
], ids=["scalar", "list", "1-D", "2-D"])
def test_kernel_values_and_shapes(s, shape):
    rng = np.random.default_rng(12)
    spec = eigendecompose(random_hermitian(rng, 8))
    w = eigenbasis_weights(spec, random_state(rng, 8))
    for order in range(4):
        got = _amplitudes(spec.eigenvalues, w, s, order)
        ref = fresh_amplitudes(spec, w, s, order)
        assert got.shape == ref.shape == (order + 1,) + shape
        assert got.tobytes() == ref.tobytes()


def test_each_order_row_is_the_same_whatever_else_is_asked():
    # a row of F is its own Leibniz sum over the amplitudes, so asking for
    # one order gives the bytes of that order's row among all of them
    rng = np.random.default_rng(13)
    lam = np.sort(rng.normal(size=8))
    w = eigenbasis_weights(SpectralDecomposition(lam), random_state(rng, 8))
    s = np.linspace(-1.0, 2.0, 7)
    for n in range(9):
        alone = _F(lam, w, s, (n,))
        assert alone.shape == (1, 7)
        assert alone[0].tobytes() == _F(lam, w, s, range(n + 1))[n].tobytes()


def test_checks_run_on_a_cached_amplitude_key(toy):
    # each oracle checks its times, state, indices and order before it
    # evaluates the kernel
    spec, v = toy
    with pytest.raises(InvalidInput, match="times must be finite"):
        recovery_probability(spec, v, 0, 1, np.nan)
    # a row vector holds the same weights as v
    with pytest.raises(InvalidInput, match=r"state of shape \(1, 2\)"):
        recovery_probability(spec, v[None, :], 0, 1, 0.3)
    with pytest.raises(InvalidInput, match="Krylov indices"):
        recovery_probability(spec, v, -1, 0, 0.3)
    with pytest.raises(InvalidInput, match="nonnegative integer"):
        recovery_derivative(spec, v, 0, 1, 0.3, 1.0)


def test_kernel_peak_memory_is_about_two_phase_arrays():
    # the contraction holds the phase array and one product of its size,
    # never a (times, order + 1, N) temporary
    rng = np.random.default_rng(4)
    n, nodes = 4096, 120
    lam = np.sort(rng.normal(size=n))
    w = np.full(n, 1.0 / n)
    s = np.linspace(0.0, 1.0, nodes)
    tracemalloc.start()
    try:
        _amplitudes(lam, w, s, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * nodes * n * np.dtype(complex).itemsize


class TestSpectralMeasure:
    N = 64

    def _spectrum(self):
        """N eigenvalues in [-3, 3] with two near-degenerate pairs: one
        spaced just below the merge bound N eps max|lam|, one just above."""
        tol = self.N * np.finfo(float).eps * 3.0
        lam = np.linspace(-3.0, 3.0, self.N - 2)
        lam = np.sort(np.r_[lam, lam[10] + 0.9 * tol, lam[40] + 1.1 * tol])
        return lam, tol

    def test_merges_only_pairs_within_the_bound(self):
        lam, tol = self._spectrum()
        # most of the weight on the merged pair, unevenly, so its first-order
        # error does not cancel
        w = np.full(self.N, 0.3 / (self.N - 2))
        w[10], w[11] = 0.6, 0.1
        spec = SpectralDecomposition(eigenvalues=lam)
        levels, amp = spectral_measure(spec, np.sqrt(w))
        assert levels.dim == self.N - 1
        assert levels.eigenvalues[10] == (lam[10] + lam[11]) / 2
        np.testing.assert_array_equal(levels.eigenvalues[:10], lam[:10])
        np.testing.assert_array_equal(levels.eigenvalues[11:], lam[12:])
        assert abs(amp[10] ** 2 - 0.7) <= 1e-15
        np.testing.assert_array_equal(amp[11:] ** 2, w[12:])
        # each eigenvalue moved by delta, so f_0 moves by at most |s| delta
        delta = (lam[11] - lam[10]) / 2
        assert delta <= tol / 2
        s = np.linspace(-50.0, 50.0, 40)  # not 0, where rounding is all
        full = _amplitudes(lam, w, s, 0)[0]
        merged = _amplitudes(levels.eigenvalues, amp ** 2, s, 0)[0]
        assert np.all(np.abs(full - merged) <= np.abs(s) * delta)
        assert np.max(np.abs(full - merged)) > 0.1 * 50.0 * delta

    def test_distinct_spectrum_comes_back_bit_for_bit(self):
        rng = np.random.default_rng(9)
        spec = eigendecompose(random_hermitian(rng, 16))
        v = random_state(rng, 16)
        levels, amp = spectral_measure(spec, v)
        assert levels.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
        assert (eigenbasis_weights(levels, amp).tobytes()
                == eigenbasis_weights(spec, v).tobytes())


class TestSecondDerivative:
    def test_diagonal_zero(self, toy, shifted):
        # exactly +0.0 at every order above 0, for scalar and array t,
        # whatever F^(n)(0) rounds to
        for spec, v in (toy, shifted[1:]):
            for order in range(1, 5):
                for t in (0.5, np.linspace(0.0, 1.0, 3)):
                    got = recovery_derivative(spec, v, 2, 2, t, order)
                    assert _bits(got) == _bits(np.zeros_like(t)), order

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
        # the oracle takes v's amplitudes over H's eigenbasis
        amp = np.linalg.eigh(h)[1].conj().T @ v
        assert abs(recovery_derivative(spec, amp, j, k, 0.0, 2) - expected) < 1e-10

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


@pytest.fixture
def shifted():
    """H shifted by +40 I, its decomposition and a random state.  H is
    diagonal, so the state is its own amplitude vector over H's
    eigenbasis, as the package reads it."""
    rng = np.random.default_rng(11)
    h = np.diag(np.linalg.eigvalsh(random_hermitian(rng, 12) + 40.0 * np.eye(12)))
    return h, eigendecompose(h), random_state(rng, 12)


class TestOracleReference:
    """The amplitude oracle against the brute-force double sum.

    H is shifted by +40 I: the double sum only sees eigenvalue differences,
    so this pins the centring that keeps powers of lam small.
    """

    GAPS = [(0, 1), (0, 3), (4, 1), (2, 9)]
    TIMES = np.linspace(0.0, 2.0, 9)

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


def _bits(x):
    return np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes()


class TestScaledTimeIdentity:
    """Every oracle is R_01 at the scaled time s = (k - j) t:

        R_jk(t) = R_01(s),   R_jk^(n)(t) = (k - j)^n R_01^(n)(s),

    bit for bit, and both sides agree with the brute-force double sums.
    """

    # random pairs, with j > k and j == k among them
    PAIRS = [tuple(int(i) for i in p)
             for p in np.random.default_rng(21).integers(0, 10, size=(6, 2))]
    PAIRS += [(7, 2), (4, 4)]
    TIMES = [0.37, np.random.default_rng(22).uniform(-0.5, 2.0, size=6)]

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("t", TIMES, ids=["scalar", "array"])
    def test_derivative(self, shifted, t, order):
        h, spec, v = shifted
        for j, k in self.PAIRS:
            got = recovery_derivative(spec, v, j, k, t, order)
            if j == k:
                # exactly 1 at order 0 and +0.0 above it, where the scaled
                # side reads (k - j)^n F^(n)(0), e.g. 0 F''(0) = -0.0
                want = np.full_like(t, float(order == 0))
            else:
                want = (k - j) ** order * recovery_derivative(
                    spec, v, 0, 1, (k - j) * np.asarray(t), order)
            assert _bits(got) == _bits(want), (j, k)
            ref = np.array([recovery_reference(h, v, j, k, ti, order)
                            for ti in np.atleast_1d(t)])
            np.testing.assert_allclose(np.atleast_1d(got), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("t", TIMES, ids=["scalar", "array"])
    def test_probability(self, shifted, t):
        h, spec, v = shifted
        for j, k in self.PAIRS:
            got = recovery_probability(spec, v, j, k, t)
            # R is its own order-0 derivative, bit for bit
            assert _bits(recovery_derivative(spec, v, j, k, t, 0)) == _bits(got)
            want = recovery_probability(spec, v, 0, 1, (k - j) * np.asarray(t))
            if j == k:
                # a diagonal entry is exactly 1; R_01(0) = ||v||^4 is 1 to
                # rounding
                assert np.all(got == 1.0)
                np.testing.assert_allclose(want, 1.0, rtol=0, atol=1e-15)
            else:
                assert _bits(got) == _bits(want), (j, k)
            ref = np.array([recovery_reference(h, v, j, k, ti)
                            for ti in np.atleast_1d(t)])
            np.testing.assert_allclose(np.atleast_1d(got), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("t", TIMES[1].tolist())
    def test_commutator(self, shifted, t):
        h, spec, v = shifted
        got = [exact_J_entry(spec, v, j, k, t) for j, k in self.PAIRS]
        for (j, k), entry in zip(self.PAIRS, got):
            if j == k:
                assert entry == 0j
                continue
            slope = recovery_derivative(spec, v, 0, 1, (k - j) * t, 1)
            want = complex(0.0, -((k - j) * slope) / (j - k))
            assert _bits(entry) == _bits(want), (j, k)
        ref = [commutator_reference(h, v, j, k, t) for j, k in self.PAIRS]
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))


class TestInitialState:
    """The state is its amplitude vector over H's eigenbasis."""

    def test_max_overlap_equal_split(self):
        spec = eigendecompose(assemble_dense(heisenberg_chain(3, seed=9)))
        v = build_initial_state(spec, 0.5)
        np.testing.assert_allclose(v, np.r_[1.0, np.zeros(6), 1.0] / np.sqrt(2),
                                   rtol=1e-15, atol=0)

    def test_partial_overlap_weights(self):
        spec = eigendecompose(assemble_dense(heisenberg_chain(3, seed=9)))
        v = build_initial_state(spec, 0.25)
        assert v[0] == v[-1] == np.sqrt(0.25)
        np.testing.assert_array_equal(v[1:-1], np.sqrt(0.5 / 6))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15

    def test_out_of_range_rejected(self):
        spec = eigendecompose(np.diag([1.0, -1.0, 0.0]))
        for bad in (0.0, 0.51, -0.1):
            with pytest.raises(InvalidInput, match=r"gamma0 = .* must lie in \(0, 0.5\]"):
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
