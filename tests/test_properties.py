"""Property tests on random real Pauli sums of up to four qubits."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superkrylov import (
    PauliHamiltonian,
    PauliString,
    assemble_dense,
    assemble_pair_exact,
    build_initial_state,
    choose_timestep,
    eigendecompose,
    pauli_word_matrix,
    threshold_solve,
)


@st.composite
def pauli_sums(draw, min_qubits=1):
    n = draw(st.integers(min_qubits, 4))
    labels = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-1.0, 1.0, allow_nan=False)
    terms = draw(st.lists(st.builds(PauliString, labels, coeffs),
                          min_size=1, max_size=8))
    return PauliHamiltonian(n, tuple(terms))


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(pauli_sums())
def test_assembly_equals_kronecker_sum(ham):
    ref = np.zeros((2**ham.n_qubits,) * 2, dtype=complex)
    for term in ham.terms:
        ref += term.coefficient * pauli_word_matrix(term.label)
    h = assemble_dense(ham)
    even_y = all(t.label.count("Y") % 2 == 0 for t in ham.terms)
    assert h.dtype == (np.float64 if even_y else np.complex128)
    np.testing.assert_array_equal(h, ref)


@SETTINGS
@given(pauli_sums(min_qubits=2), st.integers(2, 6))
def test_noise_free_ritz_values_are_antisymmetric(ham, m):
    # R_hat is real and J_hat imaginary, so d -> conj(d) maps lambda to -lambda;
    # with N >= 4 the initial state can leave weight on interior eigenvectors
    spec = eigendecompose(assemble_dense(ham))
    assume(spec.spectral_width > 1e-2)
    v = build_initial_state(spec, 0.25)
    pair = assemble_pair_exact(spec, v, m, choose_timestep(2 * spec.spectral_width))
    ritz = threshold_solve(pair, 1e-8).ritz_values
    scale = max(1.0, np.max(np.abs(ritz)))
    np.testing.assert_allclose(ritz, -ritz[::-1], rtol=0, atol=1e-10 * scale)
