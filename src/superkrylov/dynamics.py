"""Exact spectral dynamics: recovery probabilities and their derivatives.

Everything here works in the eigenbasis of H = sum_p lam_p |u_p><u_p|.
With the eigenbasis weights w_p = |<u_p|v>|^2 of the initial state, the
recovery probability between Krylov indices j and k is the squared
modulus of one O(N) eigenphase sum,

    R_jk(t) = |<v| e^{-iH(k-j)t} |v>|^2 = F((k-j) t),
    F(s)    = |f(s)|^2,   f(s) = sum_p w_p exp(-i s lam_p),

which is real, lies in [0, 1], and depends on (j, k, t) only through
s = (k-j) t: F is R_01, and d^n R_jk/dt^n = (k-j)^n F^(n)((k-j) t).  Each
F^(n) follows from the amplitudes f_m = d^m f/ds^m by the Leibniz rule,
F^(n) = sum_m C(n, m) f_m conj(f_{n-m}); these closed forms are the exact
oracles used to calibrate the noisy-measurement estimators.

So the oracles need the eigenvalues and the weights, never the
eigenvectors themselves: ``eigendecompose(h)`` keeps only the
eigenvalues, and a state is its amplitude vector <u_p|v> over H's
eigenbasis (a caller with a state v in the computational basis passes
U^dag v).  In fact they need only the spectral measure of v: one atom
per distinct eigenvalue, carrying v's population of that eigenspace.
``spectral_measure(spec, v)`` merges degenerate eigenvalues into these
levels; the experiment runners work on them, so a sweep of the
SU(2)-symmetric six-site Heisenberg chain sums 20 terms, not 64.

Every value of F comes from one function, ``_F(lam, w, s, orders)``:
F^(n) at the scaled times s for each n in orders, R clipped to [0, 1]
at order 0, so ``recovery_probability`` is the order-0
``recovery_derivative``.  A diagonal entry (j == k) is exactly 1 and its
derivatives exactly 0.  ``_F`` reads f_0..f_max(orders) from one
kernel, ``_amplitudes``, which holds the size(s) x N phase array and one
product of that size (16 MB per 120 times at N = 4096); scalar and array
calls agree bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConvergenceFailure, InvalidInput

HERMITICITY_TOL = 1e-10
# rows per strip of the Hermiticity check, so that it holds no N x N
# temporary
_STRIP_ROWS = 64


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues of a Hermitian H.  A state is its amplitude
    vector over H's eigenbasis, so no eigenvectors are stored."""

    eigenvalues: np.ndarray  # real, ascending

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def _entry_scale_and_asymmetry(h: np.ndarray) -> tuple[float, float]:
    """max |h| and max |h - h^dag|, one strip of rows and columns at a time;
    a non-finite entry raises InvalidInput (Python's max would drop a NaN)."""
    scale = asymmetry = 0.0
    for i in range(0, h.shape[0], _STRIP_ROWS):
        rows = h[i:i + _STRIP_ROWS]
        top = float(np.max(np.abs(rows)))  # NaN or inf if any entry is
        if not np.isfinite(top):
            bad = np.argwhere(~np.isfinite(rows))[:4] + (i, 0)
            raise InvalidInput(f"matrix has non-finite entries at {bad.tolist()}")
        scale = max(scale, top)
        asymmetry = max(asymmetry, float(np.max(
            np.abs(rows - h[:, i:i + _STRIP_ROWS].conj().T))))
    return scale, asymmetry


def eigendecompose(h: np.ndarray) -> SpectralDecomposition:
    """The ascending eigenvalues (``eigvalsh``) of a Hermitian matrix, all
    the oracles need, as a state is its amplitude vector over H's
    eigenbasis.  A real matrix is diagonalized in float64, a complex one
    in complex128.  A matrix that is not Hermitian to the tolerance, or
    has a non-finite entry, raises ``InvalidInput``."""
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise InvalidInput(f"matrix of shape {h.shape} must be nonempty and square")
    scale, asymmetry = _entry_scale_and_asymmetry(h)
    # relative to the entry scale, so a rescaled Hamiltonian passes alike
    tol = HERMITICITY_TOL * max(1.0, scale)
    if asymmetry > tol:
        raise InvalidInput(f"matrix is not Hermitian: asymmetry {asymmetry:.3e} "
                           f"exceeds {tol:.3e}")
    try:
        return SpectralDecomposition(eigenvalues=np.linalg.eigvalsh(h))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc


def _check_state(spec: SpectralDecomposition, v) -> np.ndarray:
    """A state of dimension N with finite entries and unit norm, to 4 N eps
    (the rounding of a sum of N squares), so R = |f_0|^2 lies in [0, 1]."""
    v = np.asarray(v)
    if v.shape != (spec.dim,):
        raise InvalidInput(f"state of shape {v.shape} must be ({spec.dim},)")
    norm_sq = np.vdot(v, v).real
    if not abs(norm_sq - 1.0) <= 4 * spec.dim * np.finfo(float).eps:
        raise InvalidInput(f"state must be finite with |v|^2 = 1, not {norm_sq}")
    return v


def _check_times(t):
    # a negative t is valid, since R is even in t
    if not np.all(np.isfinite(t)):
        raise InvalidInput("times must be finite")


def _is_integer(x) -> bool:
    """An int or numpy integer; never a bool, though bool is an Integral."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_natural(what: str, *values):
    """Reject values that are not nonnegative integers (``_is_integer``)."""
    if not all(_is_integer(x) and x >= 0 for x in values):
        raise InvalidInput(f"{what} must be nonnegative integers")


def eigenbasis_weights(spec: SpectralDecomposition, v: np.ndarray) -> np.ndarray:
    """Populations w_p = |v_p|^2 of the amplitude vector v."""
    return np.abs(_check_state(spec, v)) ** 2


def spectral_measure(spec: SpectralDecomposition, v: np.ndarray
                     ) -> tuple[SpectralDecomposition, np.ndarray]:
    """The spectral measure of v: one atom per distinct eigenvalue of H.

    Consecutive eigenvalues that differ by at most N eps max|lam| form one
    level, a bound below eigvalsh's own backward error (Golub & Van Loan,
    *Matrix Computations*, section 8.1), so it is derived, not tuned.  A
    level sits at the mean of its eigenvalues and carries the sum of their
    weights.  v is an amplitude vector over H's eigenbasis.  Returns the
    levels and the square roots of their weights: the amplitude vector of
    a state whose oracles are those of v, up to moving each eigenvalue by
    at most its distance delta from its level's mean, which moves each
    f_0 by at most |s| delta.  A spectrum without a merged level comes back with its
    eigenvalues and weights bit for bit, as sqrt(x * x) == |x| in IEEE
    arithmetic.
    """
    w = eigenbasis_weights(spec, v)
    lam = spec.eigenvalues
    tol = lam.size * np.finfo(float).eps * np.max(np.abs(lam))
    starts = np.flatnonzero(np.r_[True, np.diff(lam) > tol])
    counts = np.diff(np.r_[starts, lam.size])
    levels = np.add.reduceat(lam, starts) / counts
    return (SpectralDecomposition(eigenvalues=levels),
            np.sqrt(np.add.reduceat(w, starts)))


def _amplitudes(lam, w, s, order):
    """Amplitudes f_0..f_order at the scaled times s of levels lam, weights w.

    The result has the shape (order + 1,) + shape(atleast_1d(s)); every s
    must be finite.  f_n(s) = sum_p (w_p z_p^n) exp(s z_p) with z_p =
    -i lam_p: the phases are contracted with one coefficient row w z^n per
    order, each in one pass over the last axis, so the kernel holds the
    phase array and one product of its size, never a (size(s), order + 1,
    N) temporary.  Each row of a sum runs the same pairwise loop whatever
    size(s) is, so scalar and array calls agree bit for bit.  R ignores a
    shift of H, so lam is centred first to keep lam^n small.
    """
    _check_times(s)
    lam = np.asarray(lam, dtype=float)
    z = 1j * -(lam - 0.5 * (lam[0] + lam[-1]))
    coef = np.asarray(w, dtype=float) * z ** np.arange(order + 1)[:, None]
    phases = np.multiply.outer(np.atleast_1d(np.asarray(s, dtype=float)), z)
    np.exp(phases, out=phases)
    return np.stack([(phases * row).sum(axis=-1) for row in coef])


def _F(lam, w, s, orders):
    """F^(n) at the scaled times s, one row per n in orders: order 0 is
    R = |f_0|^2 clipped to its physical range [0, 1], and order n >= 1 is
    F^(n) = sum_i C(n, i) f_i conj(f_{n-i}), so a row costs O(n), whatever
    other orders are asked for."""
    f = _amplitudes(lam, w, s, max(orders))
    return np.stack([
        np.clip(np.abs(f[0]) ** 2, 0.0, 1.0) if n == 0 else
        sum(comb(n, i) * f[i] * np.conj(f[n - i]) for i in range(n + 1)).real
        for n in orders])


def recovery_probability(spec, v, j: int, k: int, t):
    """R_jk(t) = F((k-j) t), t scalar or array: the order-0 derivative."""
    return recovery_derivative(spec, v, j, k, t, 0)


def recovery_derivative(spec, v, j: int, k: int, t, order: int):
    """R_jk^(order)(t) = (k-j)^order F^(order)((k-j) t), a float for a scalar
    t, else an array over t; a diagonal entry is exactly 1 at order 0 and
    +0.0 above it, with no kernel call, once it has passed every check."""
    _check_natural("Krylov indices", j, k)
    _check_natural("derivative orders", order)
    w = eigenbasis_weights(spec, v)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(ts)  # before scaling, as 0 * inf warns
    s = (k - j) * ts
    if j == k:
        values = np.full(s.shape, float(order == 0))
    else:
        values = (k - j) ** order * _F(spec.eigenvalues, w, s, (order,))[0]
    return float(values[0]) if np.ndim(t) == 0 else values


def exact_J_entry(spec, v, j: int, k: int, t: float) -> complex:
    """Projected commutator entry Tr(rho_j(t) [rho_k(t), H]).

    Satisfies d/dt R_jk(t) = i(j-k) J_jk(t), so J_jk = R_jk'/(i(j-k)) is
    exactly imaginary, and the index swap gives J_kj = conj(J_jk) = -J_jk
    and J_jj = 0.
    """
    slope = recovery_derivative(spec, v, j, k, t, 1)
    return 0j if j == k else complex(0.0, -slope / (j - k))


def build_initial_state(spec: SpectralDecomposition, gamma0: float) -> np.ndarray:
    """State with real ground/top overlap product alpha_0 * alpha_{N-1} = gamma0.

    The state puts sqrt(gamma0) on both extremal eigenvectors; the
    leftover weight 1 - 2*gamma0 is spread uniformly over the interior
    eigenvectors (they do not affect the overlap with the extremal
    commutator eigenvector).  gamma0 = 0.5 is the largest value reachable
    by a vectorized pure state.  The state is returned as its normalized
    amplitude vector over H's eigenbasis.
    """
    if not 0.0 < gamma0 <= 0.5:
        raise InvalidInput(f"gamma0 = {gamma0} must lie in (0, 0.5]")
    n = spec.dim
    amp = np.zeros(n)
    amp[0] = amp[-1] = np.sqrt(gamma0)
    rest = 1.0 - 2.0 * gamma0
    if rest > 0:
        if n < 3:
            raise InvalidInput("gamma0 < 0.5 needs interior eigenvectors "
                               "to carry the rest")
        amp[1:-1] = np.sqrt(rest / (n - 2))
    return amp / np.linalg.norm(amp)
