"""Property tests on random real Pauli sums of up to four qubits, on
block-structured sums of up to eight, and on random signal/noise pairs
inside the minimax budget ellipsoid."""

from collections import Counter
from math import factorial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superkrylov import (
    EstimatorModel,
    NoiseBudget,
    PauliHamiltonian,
    PauliString,
    assemble_dense,
    assemble_pair_exact,
    build_initial_state,
    choose_timestep,
    eigendecompose,
    error_certificate,
    evaluate_x1,
    fit,
    heisenberg_chain,
    pauli_word_matrix,
    qubit_factors,
    threshold_solve,
)
from superkrylov.experiments import _factored_spectrum


@st.composite
def pauli_sums(draw, min_qubits=1):
    n = draw(st.integers(min_qubits, 4))
    labels = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-1.0, 1.0, allow_nan=False)
    terms = draw(st.lists(st.builds(PauliString, labels, coeffs),
                          min_size=1, max_size=8))
    return PauliHamiltonian(n, tuple(terms))


coefficients = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def block_sums(draw):
    """Words on disjoint random qubit blocks, with idle qubits (a block with
    no words), constant shifts (all-I words) and odd-Y (complex) words."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    terms = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        block = order[lo:hi]
        for _ in range(draw(st.integers(0, 3))):
            label = ["I"] * n
            letters = draw(st.text(alphabet="IXYZ", min_size=len(block),
                                   max_size=len(block)))
            for q, c in zip(block, letters):
                label[q] = c
            terms.append(PauliString("".join(label), draw(coefficients)))
    for _ in range(draw(st.integers(0, 2))):
        terms.append(PauliString("I" * n, draw(coefficients)))
    return PauliHamiltonian(n, tuple(draw(st.permutations(terms))))


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _non_identity_words(ham):
    # a factor keeps each word's letters in qubit order, so the word
    # without its I letters names it in H and in its factor alike
    return Counter((t.label.replace("I", ""), t.coefficient)
                   for t in ham.terms if set(t.label) != {"I"})


@SETTINGS
@given(st.one_of(block_sums(), pauli_sums()))
def test_factored_spectrum_equals_dense(ham):
    factors = qubit_factors(ham)
    ref = np.linalg.eigvalsh(assemble_dense(ham))
    got = _factored_spectrum(factors)
    width = ref[-1] - ref[0]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, width))
    assert sum(part.n_qubits for part in factors) == ham.n_qubits
    # each non-identity word lies in exactly one factor, the shifts in one
    assert sum((_non_identity_words(part) for part in factors), Counter()) \
        == _non_identity_words(ham)
    shifts = [sum(set(t.label) == {"I"} for t in part.terms) for part in factors]
    assert sum(shifts) == sum(set(t.label) == {"I"} for t in ham.terms)
    assert sum(s > 0 for s in shifts) <= 1


def test_connected_model_is_its_own_factor():
    ham = heisenberg_chain(6, seed=42)
    [part] = qubit_factors(ham)
    assert part is ham


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
    pair = assemble_pair_exact(spec, v, m, choose_timestep(spec))
    ritz = threshold_solve(pair, 1e-8).ritz_values
    scale = max(1.0, np.max(np.abs(ritz)))
    np.testing.assert_allclose(ritz, -ritz[::-1], rtol=0, atol=1e-10 * scale)


unit = st.floats(-1.0, 1.0, allow_nan=False)


@SETTINGS
@given(M=st.integers(2, 4), D=st.integers(3, 12),
       x_in=st.lists(unit, min_size=4, max_size=4),
       c=st.lists(unit, min_size=3, max_size=3),
       eta=st.lists(unit, min_size=12, max_size=12),
       log_bounds=st.tuples(st.floats(-2, 2), st.floats(-6, -1)),
       fill=st.tuples(st.floats(0, 1), st.floats(0, 1)),
       t_frac=st.integers(0, 64))
def test_certificate_bounds_error_inside_budget(M, D, x_in, c, eta, log_bounds,
                                                fill, t_frac):
    # x0 has x0^{(M)} = h(s) = sum_k c_k s^k and Taylor data x_in at 0, so
    # x0(t) = drift + sum_k c_k k! t^{k+M}/(k+M)!; inside the budget
    # ellipsoid the certificate bounds the slope error at every t
    tau = 1.0
    ts = np.linspace(0.05, 0.9, D)
    f_bound, eta_bound = 10.0 ** np.array(log_bounds)
    c = np.array(c)
    k = np.arange(3)
    h_norm_sq = float(c @ (tau ** (k[:, None] + k + 1) / (k[:, None] + k + 1)) @ c)
    if h_norm_sq > 0:
        c *= np.sqrt(fill[0] * f_bound / h_norm_sq)
    eta = np.array(eta[:D])
    if eta @ eta > 0:
        eta *= np.sqrt(fill[1] * eta_bound / (eta @ eta))
    x_in = np.array(x_in[:M])

    def taylor(t, order):
        drift = sum(x_in[p] * t ** (p - order) / factorial(p - order)
                    for p in range(order, M))
        return drift + sum(c[j] * factorial(j) * t ** (j + M - order)
                           / factorial(j + M - order) for j in k)

    model = EstimatorModel(x_in, tau, NoiseBudget(f_bound, eta_bound))
    f = fit(model, ts, taylor(ts, 0) + eta)
    t = tau * t_frac / 64
    err = abs(evaluate_x1(f, t) - taylor(t, 1))
    assert error_certificate(model, ts, t, 1) >= err * (1 - 1e-9)
