"""Brute-force eigenphase double sums for R_jk(t), its derivatives and J_jk(t),
and the dense matrix of the commutator map itself.

With H = U diag(lam) U^dag and w_p = |<u_p|v>|^2, the recovery
probability and the projected commutator entry are the O(N^2) sums

    d^n/dt^n R_jk(t) = sum_{p,q} w_p w_q (i(j-k) D_pq)^n exp(i(j-k) t D_pq),
    J_jk(t)          = sum_{p,q} w_p w_q D_pq exp(i(j-k) t D_pq),

over the eigenvalue differences D_pq = lam_p - lam_q.  This module writes
them out literally from its own eigendecomposition.  The differences do
not see a shift of H, and nothing here shares code with the package's
amplitude and Leibniz route, so agreement between the two is meaningful
evidence.
"""

import numpy as np


def _weights_and_differences(h, v):
    lam, u = np.linalg.eigh(h)
    w = np.abs(u.conj().T @ v) ** 2
    return np.outer(w, w), lam[:, None] - lam[None, :]


def recovery_reference(h, v, j, k, t, order=0):
    """d^order/dt^order R_jk(t) as the double sum over eigenvalue pairs."""
    ww, d = _weights_and_differences(h, v)
    s = 1j * (j - k) * d
    return float(np.sum(ww * s**order * np.exp(s * t)).real)


def commutator_reference(h, v, j, k, t):
    """J_jk(t) as the double sum over eigenvalue pairs."""
    ww, d = _weights_and_differences(h, v)
    return complex(np.sum(ww * d * np.exp(1j * (j - k) * t * d)))


def vectorized_commutator_matrix(h):
    """Dense N^2 x N^2 matrix I (x) H - conj(H) (x) I of the map X -> [H, X].

    Its spectrum is the multiset of eigenvalue differences {lam_p - lam_q},
    and e^{-iktJ} factorizes as conj(U(t))^{-k} (x) U(t)^{-k}.
    """
    eye = np.eye(h.shape[0])
    return np.kron(eye, h) - np.kron(np.conj(h), eye)
