import itertools

import numpy as np
import pytest

from superkrylov import (
    HamiltonianClass,
    InvalidInput,
    PauliHamiltonian,
    PauliString,
    assemble_dense,
    build_bipartite,
    build_heisenberg,
    heisenberg_chain,
    pauli_word_matrix,
)


def random_bipartite(rng, n_per_side):
    jy = {(i, n_per_side + j): float(rng.uniform(-1, 1))
          for i in range(n_per_side) for j in range(n_per_side)}
    jz = {e: float(rng.uniform(-1, 1)) for e in jy}
    h = {v: float(rng.uniform(-1, 1)) for v in range(2 * n_per_side)}
    return build_bipartite(n_per_side, jy, jz, h)


def kron_sum(ham):
    """Reference assembly: the weighted sum of Kronecker-chain word matrices."""
    out = np.zeros((2**ham.n_qubits,) * 2, dtype=complex)
    for term in ham.terms:
        out += term.coefficient * pauli_word_matrix(term.label)
    return out


class TestHeisenberg:
    def test_two_qubit_terms_and_top_energy(self):
        ham = build_heisenberg(2, {(0, 1): 1.0})
        assert len(ham.terms) == 3
        assert sorted(t.label for t in ham.terms) == ["XX", "YY", "ZZ"]
        assert ham.top_energy == 1.0
        assert ham.class_tag is HamiltonianClass.CLASS1_KNOWN_TOP

    def test_two_qubit_spectrum(self):
        h = assemble_dense(build_heisenberg(2, {(0, 1): 1.0}))
        lam = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(lam, [-3, 1, 1, 1], atol=1e-12)

    def test_zero_coupling_is_zero_hamiltonian(self):
        ham = build_heisenberg(2, {(0, 1): 0.0})
        assert ham.terms == ()
        assert ham.top_energy == 0.0

    def test_negative_coupling_rejected(self):
        with pytest.raises(InvalidInput, match=r"J_01 = -0.5 must be nonnegative"):
            build_heisenberg(2, {(0, 1): -0.5})

    def test_bad_index_rejected(self):
        with pytest.raises(InvalidInput, match=r"\(0,2\) out of range for n=2"):
            build_heisenberg(2, {(0, 2): 1.0})
        with pytest.raises(InvalidInput, match=r"\(1,1\) out of range for n=3"):
            build_heisenberg(3, {(1, 1): 1.0})

    def test_top_energy_is_max_eigenvalue(self):
        # the fully polarized state saturates the sum of the couplings
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
            chosen = [pairs[i] for i in rng.choice(len(pairs),
                      size=min(len(pairs), 4), replace=False)]
            couplings = {p: float(rng.uniform(0, 1)) for p in chosen}
            ham = build_heisenberg(n, couplings)
            lam_max = np.linalg.eigvalsh(assemble_dense(ham))[-1]
            assert abs(lam_max - ham.top_energy) < 1e-9

    def test_chain_constructor_deterministic(self):
        a = heisenberg_chain(5, seed=3)
        b = heisenberg_chain(5, seed=3)
        assert a == b
        assert len(a.terms) == 3 * 4
        assert 0 < a.top_energy < 4


class TestBipartite:
    def test_single_edge_yy_spectrum(self):
        ham = build_bipartite(1, {(0, 1): 1.0}, {}, {})
        lam = np.linalg.eigvalsh(assemble_dense(ham))
        np.testing.assert_allclose(lam, [-1, -1, 1, 1], atol=1e-12)

    def test_spectrum_symmetric_about_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ham = random_bipartite(rng, int(rng.integers(1, 4)))
            lam = np.sort(np.linalg.eigvalsh(assemble_dense(ham)))
            np.testing.assert_allclose(lam, -lam[::-1], atol=1e-10)

    def test_symmetry_operator_flips_sign(self):
        rng = np.random.default_rng(6)
        ham = random_bipartite(rng, 2)
        h = assemble_dense(ham)
        w = pauli_word_matrix("YYZZ")  # prod_{V1} Y prod_{V2} Z
        assert np.max(np.abs(w @ h @ w.conj().T + h)) < 1e-12

    def test_same_side_edge_rejected(self):
        with pytest.raises(InvalidInput, match="one side of the bipartition"):
            build_bipartite(2, {(0, 1): 1.0}, {}, {})

    def test_class_tag(self):
        ham = build_bipartite(1, {(0, 1): 1.0}, {}, {0: 0.3})
        assert ham.class_tag is HamiltonianClass.CLASS2_SYMMETRIC


class TestAssembly:
    def test_pauli_words(self):
        np.testing.assert_array_equal(pauli_word_matrix("Z"), np.diag([1.0, -1.0]))
        xx = pauli_word_matrix("XX")
        np.testing.assert_array_equal(xx, np.fliplr(np.eye(4)))

    def test_qubit_zero_is_leftmost_factor(self):
        zi = pauli_word_matrix("ZI")
        np.testing.assert_array_equal(zi, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_traceless(self):
        ham = build_heisenberg(3, {(0, 1): 1.0, (1, 2): 1.0})
        assert abs(np.trace(assemble_dense(ham))) < 1e-12

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        ham = random_bipartite(rng, 2)
        h = assemble_dense(ham)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_dimension_cap(self):
        ham = build_heisenberg(13, {(0, 1): 1.0})
        with pytest.raises(InvalidInput, match="n_qubits=13 exceeds dense cap 12"):
            assemble_dense(ham)

    def test_complex_coefficient_rejected(self):
        for coeff in (1j, 0.5 - 0.5j, 1 + 0j, np.complex128(2.0)):
            with pytest.raises(InvalidInput, match="is complex; a Pauli sum is Hermitian"):
                PauliString("XX", coeff)
        # InvalidInput stays a ValueError for callers that catch that
        assert issubclass(InvalidInput, ValueError)

    def test_every_three_qubit_word(self):
        for label in map("".join, itertools.product("IXYZ", repeat=3)):
            h = assemble_dense(PauliHamiltonian(3, (PauliString(label, -0.75),)))
            odd_y = label.count("Y") % 2 == 1
            assert h.dtype == (np.complex128 if odd_y else np.float64), label
            np.testing.assert_array_equal(h, -0.75 * pauli_word_matrix(label))

    def test_sums_with_odd_y_words_are_complex(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            labels = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(6)]
            labels.append("Y" + "X" * (n - 1))
            ham = PauliHamiltonian(n, tuple(PauliString(l, float(rng.normal()))
                                            for l in labels))
            h = assemble_dense(ham)
            assert h.dtype == np.complex128
            np.testing.assert_array_equal(h, kron_sum(ham))

    def test_model_families_are_real(self):
        rng = np.random.default_rng(13)
        for ham in (heisenberg_chain(5, seed=2), random_bipartite(rng, 2)):
            h = assemble_dense(ham)
            assert h.dtype == np.float64
            np.testing.assert_array_equal(h, kron_sum(ham))

    def test_qubit_zero_is_most_significant_bit(self):
        ham = PauliHamiltonian(2, (PauliString("XI", 1.0), PauliString("IZ", 0.5)))
        expected = [[0.5, 0, 1, 0], [0, -0.5, 0, 1],
                    [1, 0, 0.5, 0], [0, 1, 0, -0.5]]
        np.testing.assert_array_equal(assemble_dense(ham), expected)
