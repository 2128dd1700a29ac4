"""Exact spectral dynamics: time evolution and recovery probabilities.

Everything here is powered by one eigendecomposition H = U diag(lam) U^dag.
With the eigenbasis weights w_p = |<u_p|v>|^2 of the initial state, the
recovery probability between Krylov indices j and k is the squared
modulus of one O(N) eigenphase sum,

    R_jk(t) = |<v| e^{-iH(k-j)t} |v>|^2 = |f(t)|^2,
    f(t)    = sum_p w_p exp(i (j-k) t lam_p),

which is real, lies in [0, 1], and depends on (j, k) only through k - j.
Every time derivative follows from the amplitudes f_n = d^n f/dt^n by the
Leibniz rule, d^n R/dt^n = sum_m C(n, m) f_m conj(f_{n-m}); these closed
forms are the exact oracles used to calibrate the noisy-measurement
estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionCap,
    DimensionMismatch,
    NotHermitian,
    OverlapOutOfRange,
)

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian H."""

    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def eigendecompose(h: np.ndarray) -> SpectralDecomposition:
    """Hermitian eigendecomposition with a deterministic phase convention.

    The dtype follows the input: a real symmetric matrix is diagonalized
    in float64 with real eigenvectors, a complex one in complex128.  Each
    eigenvector is rotated so its largest-magnitude component is real
    and positive (for real vectors, a choice of sign), making results
    reproducible across LAPACK builds.
    """
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    # relative to the entry scale, so a rescaled Hamiltonian passes alike
    tol = HERMITICITY_TOL * max(1.0, float(np.max(np.abs(h))))
    asymmetry = float(np.max(np.abs(h - h.conj().T)))
    if asymmetry > tol:
        raise NotHermitian(f"asymmetry {asymmetry:.3e} exceeds {tol:.3e}")
    try:
        lam, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    # fix eigenvector phases
    idx = np.argmax(np.abs(u), axis=0)
    phases = u[idx, np.arange(u.shape[1])]
    phases = phases / np.abs(phases)
    u = u / phases[np.newaxis, :]
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=u)


def evolve(spec: SpectralDecomposition, v: np.ndarray, t: float) -> np.ndarray:
    """Apply U e^{-i diag(lam) t} U^dag to the state v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.dim,):
        raise DimensionMismatch("state dimension does not match decomposition")
    u = spec.eigenvectors
    return u @ (np.exp(-1j * spec.eigenvalues * t) * (u.conj().T @ v))


def eigenbasis_weights(spec: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """Populations w_p = |<u_p|v>|^2 of the state in the eigenbasis."""
    v = np.asarray(v)
    if v.shape != (spec.dim,):
        raise DimensionMismatch("state dimension does not match decomposition")
    c = spec.eigenvectors.conj().T @ v
    return np.abs(c) ** 2


def _amplitudes(spec, w, d, t, order):
    """Amplitudes f_0..f_order for the weights w at index differences d = j - k.

    d is an int or an array of them, and the result has the shape
    (order + 1, len(atleast_1d(t))) + shape(d).  Scalar and array calls
    run the same loops, so they agree bit for bit.  R ignores a shift of
    H, so lam is centred first to keep lam^n small.
    """
    lam = spec.eigenvalues - 0.5 * (spec.eigenvalues[0] + spec.eigenvalues[-1])
    z = 1j * np.multiply.outer(d, lam)
    phases = np.exp(np.multiply.outer(np.atleast_1d(t), z))
    terms = (w * phases)[..., None, :]
    amps = np.sum(terms * z[..., None, :] ** np.arange(order + 1)[:, None], axis=-1)
    return np.moveaxis(amps, -1, 0)


def _probability(f):
    """R = |f_0|^2, clipped to its physical range [0, 1]."""
    return np.clip(np.abs(f[0]) ** 2, 0.0, 1.0)


def _derivative(f, order: int):
    """d^order R/dt^order = sum_n C(order, n) f_n conj(f_{order-n})."""
    return sum(comb(order, n) * f[n] * np.conj(f[order - n])
               for n in range(order + 1)).real


def _like_t(t, values):
    """A float for a scalar t, else the array of values over t."""
    return float(values[0]) if np.ndim(t) == 0 else values


def recovery_probability(spec, v, j: int, k: int, t):
    """R_jk(t) = |<v| e^{-iH(k-j)t} |v>|^2 at a scalar t or an array of t."""
    if j < 0 or k < 0:
        raise ValueError("Krylov indices must be nonnegative")
    if j == k:  # diagonal entries carry no dynamics and are exact
        return _like_t(t, np.ones_like(np.atleast_1d(t), dtype=float))
    f = _amplitudes(spec, eigenbasis_weights(spec, v), j - k, t, 0)
    return _like_t(t, _probability(f))


def recovery_derivative(spec, v, j: int, k: int, t, order: int):
    """Exact order-th time derivative of R_jk at a scalar t or an array of t."""
    if j < 0 or k < 0:
        raise ValueError("Krylov indices must be nonnegative")
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    f = _amplitudes(spec, eigenbasis_weights(spec, v), j - k, t, order)
    return _like_t(t, _derivative(f, order))


def exact_J_entry(spec, v, j: int, k: int, t: float) -> complex:
    """Projected commutator entry Tr(rho_j(t) [rho_k(t), H]).

    Satisfies d/dt R_jk(t) = i(j-k) J_jk(t), so J_jk = R_jk'/(i(j-k)) is
    exactly imaginary, and the index swap gives J_kj = conj(J_jk) = -J_jk
    and J_jj = 0.
    """
    if j < 0 or k < 0:
        raise ValueError("Krylov indices must be nonnegative")
    if j == k:
        return 0j
    return complex(0.0, -recovery_derivative(spec, v, j, k, t, 1) / (j - k))


def build_initial_state(spec: SpectralDecomposition, gamma0: float) -> np.ndarray:
    """State with real ground/top overlap product alpha_0 * alpha_{N-1} = gamma0.

    The state puts sqrt(gamma0) on both extremal eigenvectors; the
    leftover weight 1 - 2*gamma0 is spread uniformly over the interior
    eigenvectors (they do not affect the overlap with the extremal
    commutator eigenvector).  gamma0 = 0.5 is the largest value reachable
    by a vectorized pure state.
    """
    if not 0.0 < gamma0 <= 0.5:
        raise OverlapOutOfRange(f"gamma0 = {gamma0} outside (0, 0.5]")
    n = spec.dim
    amp = np.zeros(n)
    amp[0] = amp[-1] = np.sqrt(gamma0)
    rest = 1.0 - 2.0 * gamma0
    if rest > 0:
        if n < 3:
            raise OverlapOutOfRange(
                "gamma0 < 0.5 needs interior eigenvectors to carry the rest"
            )
        amp[1:-1] = np.sqrt(rest / (n - 2))
    v = spec.eigenvectors @ amp
    return v / np.linalg.norm(v)


def vectorized_commutator_matrix(h: np.ndarray) -> np.ndarray:
    """Dense N^2 x N^2 matrix I (x) H - conj(H) (x) I of the commutator map.

    Test-only helper: its spectrum is the multiset of eigenvalue
    differences {lam_p - lam_q}, and e^{-iktJ} factorizes as
    conj(U(t))^{-k} (x) U(t)^{-k}.  Capped at N <= 16.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if n > 16:
        raise DimensionCap(f"N={n} exceeds the N<=16 cap for dense vectorization")
    eye = np.eye(n)
    return np.kron(eye, h) - np.kron(h.conj(), eye)
