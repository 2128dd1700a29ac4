"""Projected commutator eigenproblem: pair assembly and thresholded solve.

The ground-state energy gap Delta_0 = lam_0 - lam_{N-1} is the lowest
eigenvalue of the commutator map X -> [H, X].  Projecting that map onto
the Krylov family generated by repeated time evolution of a reference
state gives a small generalized eigenproblem

    J_hat |d> = d R_hat |d>,

where R_hat collects recovery probabilities (the Gram matrix of the
Krylov family) and J_hat the projected commutator.  Both matrices depend
only on the index gap k - j and are Hermitian, so each is fixed by its
first row, one value per gap, and the m-pair is the leading block of
every larger one.  R_hat is real and J_hat = i A_hat with A_hat real,
for exact and estimated pairs alike, so a ``KrylovPair`` holds two real
rows and the R_hat and A_hat they fix, and is solved in real arithmetic;
the Ritz spectrum is antisymmetric.
The Gram matrix is nearly singular by design (that is what convergence
looks like), so the solve first discards Gram eigendirections below a
threshold eps and whitens the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    SpectralDecomposition,
    _F,
    _is_integer,
    eigenbasis_weights,
)
from .errors import AllModesThresholded, InvalidInput, SingularSystem
from .minimax import evaluate_x0, evaluate_x1
from .pauli import HamiltonianClass, PauliHamiltonian


def _toeplitz(row: np.ndarray, antisymmetric: bool = False) -> np.ndarray:
    """The Toeplitz matrix with entry (j, k) = row[k - j] for k >= j and,
    below the diagonal, row[j - k], negated if antisymmetric."""
    m = row.size
    lower = -row if antisymmetric else row
    # entry (j, k) is full[m - 1 + k - j]
    full = np.concatenate((lower[:0:-1], row))
    i = np.arange(m)
    return full[m - 1 + i - i[:, None]]


@dataclass(frozen=True, eq=False)
class KrylovPair:
    """The pair (J_hat, R_hat), given by two finite real first rows r and a.

    R_hat is real symmetric Toeplitz with R_jk = r[|k - j|], r[0] = 1,
    and J_hat = i A_hat with A_hat real antisymmetric Toeplitz, A_jk =
    a[k - j] for k >= j, a[0] = 0.  The rows are read-only copies, and
    R_hat and A_hat are read-only matrices built from them once.
    """

    r: np.ndarray
    a: np.ndarray
    R_hat: np.ndarray = field(init=False, repr=False)
    A_hat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r, a = np.array(self.r, dtype=float), np.array(self.a, dtype=float)
        if r.ndim != 1 or r.size == 0 or a.shape != r.shape:
            raise InvalidInput(
                "pair rows must be 1-D, nonempty and of one length")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(a))):
            raise SingularSystem("projected pair has non-finite entries")
        if a[0] != 0:
            raise InvalidInput(f"a[0] = {a[0]} must be 0: J_hat has a zero diagonal")
        arrays = {"r": r, "a": a, "R_hat": _toeplitz(r),
                  "A_hat": _toeplitz(a, antisymmetric=True)}
        for name, x in arrays.items():
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    @property
    def m(self) -> int:
        """Krylov dimension: the order of R_hat and J_hat."""
        return self.r.size

    def leading(self, m: int) -> "KrylovPair":
        """The m-pair: the leading m x m blocks, with rows r[:m], a[:m]."""
        if not (_is_integer(m) and 1 <= m <= self.m):
            raise InvalidInput(f"m = {m!r} must be an integer in [1, {self.m}]")
        return KrylovPair(r=self.r[:m], a=self.a[:m])


@dataclass(frozen=True, eq=False)
class RitzResult:
    """Ascending real Ritz values of the thresholded projected problem."""

    ritz_values: np.ndarray
    kept_dim: int

    @property
    def ground_gap(self) -> float:
        """Lowest Ritz value: the estimate of lam_0 - lam_{N-1}."""
        return float(self.ritz_values[0])


def assemble_pair_exact(spec: SpectralDecomposition, v: np.ndarray, m: int,
                        t_star: float) -> KrylovPair:
    """Exact (J_hat, R_hat) from the spectral oracles at timestep t_star.

    Entries depend only on the gap g = k - j: one call of ``dynamics._F``,
    the source of every value of F, at the times g t_star gives R_0g =
    F(g t_star) and a_g = F'(g t_star), as J_0g = R_0g'/(-ig) = i a_g; the
    diagonal is exactly R = 1 and a = 0.
    """
    if not (_is_integer(m) and m >= 2):
        raise InvalidInput(f"Krylov dimension m = {m!r} must be an integer >= 2")
    times = np.arange(1, m) * t_star
    r, a = _F(spec.eigenvalues, eigenbasis_weights(spec, v), times, (0, 1))
    return KrylovPair(r=np.r_[1.0, r], a=np.r_[0.0, a])


def assemble_pair_minimax(fits, t_star: float) -> KrylovPair:
    """(J_hat, R_hat) from minimax fits evaluated at t_star.

    ``fits[g - 1]`` is a MinimaxFit of the series R_0g for the index gap
    g = k - j, so the pair has dimension len(fits) + 1; the m-pair comes
    from ``fits[:m - 1]``.  Each Gram entry is the reconstructed value
    clipped to its physical range [0, 1]; each commutator entry is the
    reconstructed derivative divided by i(j - k) = -ig, which is i a_g
    with a_g = x_hat_1 / g.
    """
    if not fits:
        raise InvalidInput("need a fit for at least gap 1 (Krylov dimension 2)")
    r, a = [1.0], [0.0]
    for g, f in enumerate(fits, 1):
        r.append(min(max(evaluate_x0(f, t_star), 0.0), 1.0))
        a.append(evaluate_x1(f, t_star) / g)
    return KrylovPair(r=r, a=a)


def threshold_solve(pair: KrylovPair, eps: float) -> RitzResult:
    """Solve J_hat |d> = d R_hat |d> after Gram-eigenvalue thresholding.

    Gram eigendirections with eigenvalue <= eps are projected out; the
    survivors are whitened (scaled by sigma^{-1/2}) so the reduced problem
    is an ordinary Hermitian eigenproblem.  All of it is real but the last
    step: with W the whitened kept eigenvectors of the real symmetric
    R_hat, the reduced J_hat is i B, B = W^T A_hat W real antisymmetric.
    """
    if not eps >= 0:  # a NaN fails this too
        raise InvalidInput(f"threshold eps = {eps} must be nonnegative")
    sig, V = np.linalg.eigh(pair.R_hat)
    keep = sig > eps
    if not keep.any():
        raise AllModesThresholded(
            f"eps = {eps} removed all {pair.m} Gram eigenmodes "
            f"(max eigenvalue {sig[-1]:.3e})"
        )
    W = V[:, keep] / np.sqrt(sig[keep])
    B = W.T @ pair.A_hat @ W
    ritz = np.linalg.eigvalsh(1j * B)
    return RitzResult(ritz_values=ritz, kept_dim=int(keep.sum()))


def ground_energy(result: RitzResult, ham: PauliHamiltonian) -> float:
    """Ground energy of ``ham`` from the lowest Ritz value: a known-top H
    shifts by its ``top_energy``, a symmetric-spectrum H halves the gap."""
    d0, top = result.ground_gap, ham.top_energy
    if ham.class_tag is HamiltonianClass.CLASS1_KNOWN_TOP:
        if top is None or not np.isfinite(top):
            raise InvalidInput("known-top post-processing needs a finite "
                               f"top_energy, not {top}")
        return d0 + top
    if ham.class_tag is HamiltonianClass.CLASS2_SYMMETRIC:
        return d0 / 2.0
    raise InvalidInput("no ground-energy rule for generic Hamiltonians")


def _commutator_width(spec: SpectralDecomposition) -> float:
    """2 W, W = ``spec.spectral_width`` = lam_max - lam_min: the commutator
    spectrum of H spans [-W, W]."""
    width = 2.0 * spec.spectral_width
    if not 0 < width < np.inf:
        raise InvalidInput(f"commutator spectrum width {width} "
                           "must be positive and finite")
    return width


def choose_timestep(spec: SpectralDecomposition) -> float:
    """Krylov timestep t* = pi / (2 W) (``_commutator_width``)."""
    return float(np.pi / _commutator_width(spec))


def noise_rate(pair_estimated: KrylovPair, pair_exact: KrylovPair,
               spec: SpectralDecomposition) -> float:
    """Unitless perturbation size omega of an estimated pair of ``spec``.

    omega = ||R_hat - R||_2 + ||J_hat - J||_2 / (2 W), with 2 W the width
    of the commutator spectrum [-W, W] (``_commutator_width``).  That
    spectrum's norm is W, so the J term is half of one scaled by the norm;
    CHANGES.md keeps this J scale as an open ``FOUND:`` line.
    Both norms are found in real arithmetic by eigvalsh, without the SVD
    that norm(ord=2) runs: the difference of R is real symmetric, so its
    norm is its largest |eigenvalue|; the difference of J is i dA with dA
    real antisymmetric, so its norm is that of dA, the square root of the
    largest eigenvalue of dA^T dA.
    """
    if pair_estimated.m != pair_exact.m:
        raise InvalidInput(f"pairs of Krylov dimensions {pair_estimated.m} and "
                           f"{pair_exact.m} must match")
    width = _commutator_width(spec)
    dR = np.linalg.eigvalsh(pair_estimated.R_hat - pair_exact.R_hat)
    dA = pair_estimated.A_hat - pair_exact.A_hat
    dJ_sq = np.linalg.eigvalsh(dA.T @ dA)[-1]
    return float(np.max(np.abs(dR)) + np.sqrt(dJ_sq) / width)
