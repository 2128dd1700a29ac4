"""Property tests on random real Pauli sums of up to four qubits, and on
random signal/noise pairs inside the minimax budget ellipsoid."""

from math import factorial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superkrylov import (
    EstimatorModel,
    MeasurementSeries,
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
    pauli_word_matrix,
    select_qr,
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

    model = EstimatorModel(M, x_in, tau, select_qr(f_bound, eta_bound))
    f = fit(model, MeasurementSeries(timepoints=ts, values=taylor(ts, 0) + eta))
    t = tau * t_frac / 64
    err = abs(evaluate_x1(f, t) - taylor(t, 1))
    assert error_certificate(model, ts, t, 1) >= err * (1 - 1e-9)
