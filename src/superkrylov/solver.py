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
every larger one.  In the noise-free case R_hat is real while J_hat is
purely imaginary, which makes the Ritz spectrum exactly antisymmetric.
The Gram matrix is nearly singular by design (that is what convergence
looks like), so the solve first discards Gram eigendirections below a
threshold eps and whitens the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SpectralDecomposition,
    _amplitudes,
    _derivative,
    _probability,
    eigenbasis_weights,
)
from .errors import (
    AllModesThresholded,
    DimensionMismatch,
    MissingTopEnergy,
    SingularSystem,
    ZeroWidth,
)
from .minimax import evaluate_x0, evaluate_x1
from .pauli import HamiltonianClass


@dataclass(frozen=True)
class KrylovPair:
    """Hermitian m x m pair (J_hat, R_hat) with unit diagonal Gram."""

    R_hat: np.ndarray
    J_hat: np.ndarray

    def __post_init__(self):
        R, J = self.R_hat, self.J_hat
        if R.ndim != 2 or R.shape[0] != R.shape[1] or J.shape != R.shape:
            raise DimensionMismatch("pair matrices must be square, of one shape")

    @property
    def m(self) -> int:
        """Krylov dimension: the order of R_hat and J_hat."""
        return self.R_hat.shape[0]


@dataclass(frozen=True)
class RitzResult:
    """Ascending real Ritz values of the thresholded projected problem."""

    ritz_values: np.ndarray
    kept_dim: int

    @property
    def ground_gap(self) -> float:
        """Lowest Ritz value: the estimate of lam_0 - lam_{N-1}."""
        return float(self.ritz_values[0])


def _toeplitz_pair(r_row, j_row) -> KrylovPair:
    """Hermitian Toeplitz pair from its first rows, indexed by gap k - j.

    Entry (j, k) with k >= j takes row[k - j] and the lower triangle is its
    conjugate, so row[0] is the diagonal (R_jj = 1, J_jj = 0 for a pair).
    """
    r_row = np.asarray(r_row, dtype=complex)
    j_row = np.asarray(j_row, dtype=complex)
    m = r_row.size
    d = np.subtract.outer(np.arange(m), np.arange(m))  # j - k
    lower, g = d > 0, np.abs(d)
    R = np.where(lower, r_row[g].conj(), r_row[g])
    J = np.where(lower, j_row[g].conj(), j_row[g])
    return KrylovPair(R_hat=R, J_hat=J)


def assemble_pair_exact(spec: SpectralDecomposition, v: np.ndarray, m: int,
                        t_star: float) -> KrylovPair:
    """Exact (J_hat, R_hat) from the spectral oracles at timestep t_star.

    Entries depend only on the gap g = k - j, so the m - 1 distinct values
    come from one weight vector and one amplitude call at the times g t_star:
    R_0g = F(g t_star) as in recovery_probability and J_0g = R_0g'/(-ig)
    = i F'(g t_star) as in exact_J_entry.
    """
    if m < 2:
        raise ValueError("Krylov dimension m must be at least 2")
    times = np.arange(1, m) * t_star
    f = _amplitudes(spec, eigenbasis_weights(spec, v), times, 1)
    r_row = np.ones(m, dtype=complex)
    r_row[1:] = _probability(f)
    # written through .imag so the real parts stay +0 (1j * x gives -0
    # wherever x < 0)
    j_row = np.zeros(m, dtype=complex)
    j_row.imag[1:] = _derivative(f, 1)
    return _toeplitz_pair(r_row, j_row)


def assemble_pair_minimax(fits, t_star: float) -> KrylovPair:
    """(J_hat, R_hat) from minimax fits evaluated at t_star.

    ``fits[g - 1]`` is a MinimaxFit of the series R_0g for the index gap
    g = k - j, so the pair has dimension len(fits) + 1; the m-pair comes
    from ``fits[:m - 1]``.  Each Gram entry is the reconstructed value
    clipped to its physical range [0, 1]; each commutator entry is the
    reconstructed derivative divided by i(j - k).
    """
    if not fits:
        raise ValueError("need a fit for at least gap 1 (Krylov dimension 2)")
    r_row, j_row = [1.0], [0.0]
    for g, f in enumerate(fits, 1):
        r_row.append(min(max(evaluate_x0(f, t_star), 0.0), 1.0))
        j_row.append(evaluate_x1(f, t_star) / (1j * -g))
    return _toeplitz_pair(r_row, j_row)


def threshold_solve(pair: KrylovPair, eps: float) -> RitzResult:
    """Solve J_hat |d> = d R_hat |d> after Gram-eigenvalue thresholding.

    Gram eigendirections with eigenvalue <= eps are projected out; the
    survivors are whitened (scaled by sigma^{-1/2}) so the reduced problem
    is an ordinary Hermitian eigenproblem.
    """
    if not eps >= 0:  # a NaN fails this too
        raise ValueError("threshold eps must be nonnegative")
    if not (np.all(np.isfinite(pair.R_hat)) and np.all(np.isfinite(pair.J_hat))):
        raise SingularSystem("projected pair has non-finite entries")
    sig, V = np.linalg.eigh((pair.R_hat + pair.R_hat.conj().T) / 2.0)
    keep = sig > eps
    if not keep.any():
        raise AllModesThresholded(
            f"eps = {eps} removed all {pair.m} Gram eigenmodes "
            f"(max eigenvalue {sig[-1]:.3e})"
        )
    W = V[:, keep] / np.sqrt(sig[keep])
    J_red = W.conj().T @ pair.J_hat @ W
    ritz = np.linalg.eigvalsh((J_red + J_red.conj().T) / 2.0)
    return RitzResult(ritz_values=ritz, kept_dim=int(keep.sum()))


def ground_energy(result: RitzResult, class_tag: HamiltonianClass,
                  top_energy: float | None = None) -> float:
    """Ground energy from the lowest Ritz value.

    Known-top Hamiltonians shift by the top energy; symmetric-spectrum
    Hamiltonians halve the gap (the top is minus the ground energy).
    """
    d0 = result.ground_gap
    if class_tag is HamiltonianClass.CLASS1_KNOWN_TOP:
        if top_energy is None:
            raise MissingTopEnergy("known-top post-processing needs top_energy")
        return d0 + top_energy
    if class_tag is HamiltonianClass.CLASS2_SYMMETRIC:
        return d0 / 2.0
    raise ValueError("no ground-energy rule for generic Hamiltonians")


def choose_timestep(spectral_width: float) -> float:
    """Krylov timestep t* = pi / width of the commutator spectrum.

    The commutator spectrum spans [-(lam_max - lam_min), lam_max - lam_min],
    so pass spectral_width = 2 (lam_max - lam_min).
    """
    if not 0 < spectral_width < np.inf:
        raise ZeroWidth(f"commutator spectrum width {spectral_width} "
                        "must be positive and finite")
    return float(np.pi / spectral_width)


def noise_rate(pair_estimated: KrylovPair, pair_exact: KrylovPair,
               j_spectral_norm: float) -> float:
    """Unitless perturbation size omega of an estimated pair.

    omega = ||R_hat - R||_2 + ||J_hat - J||_2 / ||J||_2, where the
    commutator norm ||J||_2 = 2 (lam_max - lam_min) is supplied by the
    caller (the simulator knows it exactly).  Both pairs are Hermitian --
    ``_toeplitz_pair`` fills the lower triangle with exact conjugates --
    so each difference is too, and its spectral norm is its largest
    |eigenvalue|, which eigvalsh finds without the SVD that norm(ord=2)
    runs.
    """
    if pair_estimated.m != pair_exact.m:
        raise DimensionMismatch("pairs have different Krylov dimensions")
    if not 0 < j_spectral_norm < np.inf:
        raise ValueError("j_spectral_norm must be positive and finite")
    dR = np.linalg.eigvalsh(pair_estimated.R_hat - pair_exact.R_hat)
    dJ = np.linalg.eigvalsh(pair_estimated.J_hat - pair_exact.J_hat)
    return float(np.max(np.abs(dR)) + np.max(np.abs(dJ)) / j_spectral_norm)
