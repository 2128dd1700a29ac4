"""Earlier forms of two kernels, kept to pin their vectorized replacements.

``overlap_reference`` is the overlap integral

    int_0^min(a,b) (a-s)^p (b-s)^q ds

as ``minimax._overlap`` computed it before it stopped materializing the
broadcast of its four arguments, and ``toeplitz_pair_reference`` fills the
symmetric and antisymmetric Toeplitz pair from its first rows entry by
entry, the reference for the real matrices a ``solver.KrylovPair``
derives from its rows.
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


def toeplitz_pair_reference(r_row, a_row):
    m = len(r_row)
    R = np.zeros((m, m))
    A = np.zeros((m, m))
    for j in range(m):
        R[j, j], A[j, j] = r_row[0], a_row[0]
        for k in range(j + 1, m):
            g = k - j
            R[j, k] = R[k, j] = r_row[g]
            A[j, k] = a_row[g]
            A[k, j] = -A[j, k]
    return R, A
