"""Exact spectral dynamics: time evolution and recovery probabilities.

Everything here is powered by one eigendecomposition H = U diag(lam) U^dag.
Writing the initial state in the eigenbasis, c = U^dag v, w_p = |c_p|^2,
the recovery probability between Krylov indices j and k collapses to

    R_jk(t) = |<v| e^{-iH(k-j)t} |v>|^2
            = sum_{p,q} w_p w_q exp(i (j-k) t (lam_p - lam_q)),

which is real, lies in [0, 1], and depends on (j, k) only through k - j.
Every time derivative follows in closed form by multiplying the summand
with powers of i(j-k)(lam_p - lam_q); these closed forms are the exact
oracles used to calibrate the noisy-measurement estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Each eigenvector is rotated so its largest-magnitude component is real
    and positive, making results reproducible across LAPACK builds.
    """
    h = np.asarray(h, dtype=complex)
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
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.dim,):
        raise DimensionMismatch("state dimension does not match decomposition")
    c = spec.eigenvectors.conj().T @ v
    return np.abs(c) ** 2


def _phase_sum(spec, v, j, k, t, order=0):
    """sum_{p,q} w_p w_q (i(j-k) D_pq)^order exp(i(j-k) t D_pq), D = lam_p-lam_q."""
    w = eigenbasis_weights(spec, v)
    d = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    factor = (1j * (j - k) * d) ** order if order else 1.0
    return complex(np.sum(np.outer(w, w) * factor * np.exp(1j * (j - k) * t * d)))


def recovery_probability(spec, v, j: int, k: int, t: float) -> float:
    """R_jk(t) = |<v| e^{-iH(k-j)t} |v>|^2, the survival probability."""
    if j < 0 or k < 0:
        raise ValueError("Krylov indices must be nonnegative")
    if j == k:
        return 1.0  # diagonal entries carry no dynamics and are exact
    val = _phase_sum(spec, v, j, k, t).real
    return float(min(max(val, 0.0), 1.0))


def recovery_derivative(spec, v, j: int, k: int, t: float, order: int) -> float:
    """Exact order-th time derivative of R_jk(t), from the eigenphase sum."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    return _phase_sum(spec, v, j, k, t, order=order).real


def exact_J_entry(spec, v, j: int, k: int, t: float) -> complex:
    """Projected commutator entry Tr(rho_j(t) [rho_k(t), H]).

    Satisfies d/dt R_jk(t) = i(j-k) J_jk(t).  Every entry is purely
    imaginary (conjugating the trace swaps the commutator sign), so the
    index swap gives J_kj = conj(J_jk) = -J_jk and J_jj = 0.
    """
    if j < 0 or k < 0:
        raise ValueError("Krylov indices must be nonnegative")
    if j == k:
        return 0j
    w = eigenbasis_weights(spec, v)
    d = spec.eigenvalues[:, None] - spec.eigenvalues[None, :]
    return complex(np.sum(np.outer(w, w) * d * np.exp(1j * (j - k) * t * d)))


def exact_second_derivative(spec, v, j: int, k: int, t: float) -> float:
    """Exact d^2/dt^2 R_jk(t); at t=0 this is the curvature entering x_in."""
    return recovery_derivative(spec, v, j, k, t, order=2)


def build_initial_state(spec: SpectralDecomposition, gamma0: float,
                        interior_weights: np.ndarray | None = None) -> np.ndarray:
    """State with real ground/top overlap product alpha_0 * alpha_{N-1} = gamma0.

    The default split puts sqrt(gamma0) on both extremal eigenvectors; the
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
        if interior_weights is None:
            amp[1:-1] = np.sqrt(rest / (n - 2))
        else:
            iw = np.asarray(interior_weights, dtype=float)
            if iw.shape != (n - 2,) or np.any(iw < 0):
                raise DimensionMismatch("interior_weights must be N-2 nonnegatives")
            amp[1:-1] = np.sqrt(rest * iw / iw.sum())
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
