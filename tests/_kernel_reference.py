"""Earlier forms of two kernels, kept to pin their vectorized replacements.

``overlap_reference`` is the overlap integral

    int_0^min(a,b) (a-s)^p (b-s)^q ds

as ``minimax._overlap`` computed it before it stopped materializing the
broadcast of its four arguments, and ``toeplitz_pair_reference`` fills the
Hermitian Toeplitz pair entry by entry, as ``solver._toeplitz_pair`` did
before it indexed one row by |j - k|.
"""

import numpy as np


def overlap_reference(a, p, b, q):
    a, p, b, q = np.broadcast_arrays(np.asarray(a, dtype=float), p,
                                     np.asarray(b, dtype=float), q)
    swap = a > b
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    p, q = np.where(swap, q, p), np.where(swap, p, q)
    total = np.zeros(lo.shape)
    coef = np.ones(lo.shape)
    for k in range(int(q.max(initial=0)) + 1):
        power = p + k + 1
        total += coef * (hi - lo) ** np.maximum(q - k, 0) * lo ** power / power
        coef = coef * (q - k) / (k + 1)
    return total


def toeplitz_pair_reference(m, r_gap, j_gap):
    R = np.eye(m, dtype=complex)
    J = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(j + 1, m):
            g = k - j
            R[j, k] = r_gap[g]
            R[k, j] = np.conj(R[j, k])
            J[j, k] = j_gap[g]
            J[k, j] = np.conj(J[j, k])
    return R, J
