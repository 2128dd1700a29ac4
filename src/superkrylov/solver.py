"""Projected commutator eigenproblem: pair assembly and thresholded solve.

The ground-state energy gap Delta_0 = lam_0 - lam_{N-1} is the lowest
eigenvalue of the commutator map X -> [H, X].  Projecting that map onto
the Krylov family generated by repeated time evolution of a reference
state gives a small generalized eigenproblem

    J_hat |d> = d R_hat |d>,

where R_hat collects recovery probabilities (the Gram matrix of the
Krylov family) and J_hat the projected commutator.  Both matrices depend
only on the index gap k - j, are Hermitian, and in the noise-free case
R_hat is real while J_hat is purely imaginary, which makes the Ritz
spectrum exactly antisymmetric.  The Gram matrix is nearly singular by
design (that is what convergence looks like), so the solve first discards
Gram eigendirections below a threshold eps and whitens the rest.
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
    MissingFit,
    MissingTopEnergy,
    SingularSystem,
    ZeroWidth,
)
from .minimax import evaluate_x0, evaluate_x1
from .pauli import HamiltonianClass


@dataclass(frozen=True)
class KrylovPair:
    """Hermitian m x m pair (J_hat, R_hat) with unit diagonal Gram."""

    m: int
    R_hat: np.ndarray
    J_hat: np.ndarray

    def __post_init__(self):
        R, J = self.R_hat, self.J_hat
        if R.shape != (self.m, self.m) or J.shape != (self.m, self.m):
            raise DimensionMismatch("pair matrices must be m x m")


@dataclass(frozen=True)
class RitzResult:
    """Ascending real Ritz values of the thresholded projected problem."""

    ritz_values: np.ndarray
    kept_dim: int

    @property
    def ground_gap(self) -> float:
        """Lowest Ritz value: the estimate of lam_0 - lam_{N-1}."""
        return float(self.ritz_values[0])


def _toeplitz_pair(m: int, r_gap: dict, j_gap: dict) -> KrylovPair:
    """Hermitian Toeplitz pair from its upper-triangle entries per gap.

    Entry (j, k) with k > j takes the value at gap k - j; the lower
    triangle is its conjugate and the diagonal is exact (R_jj = 1, J_jj = 0).
    """
    gaps = range(1, m)
    r_row = np.array([1.0, *(r_gap[g] for g in gaps)], dtype=complex)
    j_row = np.array([0.0, *(j_gap[g] for g in gaps)], dtype=complex)
    d = np.subtract.outer(np.arange(m), np.arange(m))  # j - k
    lower, g = d > 0, np.abs(d)
    R = np.where(lower, r_row[g].conj(), r_row[g])
    J = np.where(lower, j_row[g].conj(), j_row[g])
    return KrylovPair(m=m, R_hat=R, J_hat=J)


def assemble_pair_exact(spec: SpectralDecomposition, v: np.ndarray, m: int,
                        t_star: float) -> KrylovPair:
    """Exact (J_hat, R_hat) from the spectral oracles at timestep t_star.

    Entries depend only on the gap g = k - j, so the m - 1 distinct values
    come from one weight vector and one amplitude call over all gaps:
    R_0g = |f_0|^2 as in recovery_probability and J_0g = R_0g'/(-ig) as
    in exact_J_entry.
    """
    if m < 2:
        raise ValueError("Krylov dimension m must be at least 2")
    gaps = np.arange(1, m)
    f = _amplitudes(spec, eigenbasis_weights(spec, v), -gaps, t_star, 1)[:, 0]
    r_gap = dict(zip(gaps.tolist(), _probability(f).tolist()))
    j_gap = {g: complex(0.0, dr / g)
             for g, dr in zip(gaps.tolist(), _derivative(f, 1).tolist())}
    return _toeplitz_pair(m, r_gap, j_gap)


def assemble_pair_minimax(fits: dict, m: int, t_star: float) -> KrylovPair:
    """(J_hat, R_hat) from minimax fits evaluated at t_star.

    ``fits`` maps each index gap g = k - j (1 <= g < m) to a MinimaxFit of
    the series R_0g; a missing gap raises MissingFit.  Each Gram entry is
    the reconstructed value clipped to its physical range [0, 1]; each
    commutator entry is the reconstructed derivative divided by i(j - k).
    """
    if m < 2:
        raise ValueError("Krylov dimension m must be at least 2")
    r_gap, j_gap = {}, {}
    for g in range(1, m):
        if g not in fits:
            raise MissingFit(f"no fit for gap {g}")
        r_gap[g] = min(max(evaluate_x0(fits[g], t_star), 0.0), 1.0)
        j_gap[g] = evaluate_x1(fits[g], t_star) / (1j * -g)
    return _toeplitz_pair(m, r_gap, j_gap)


def threshold_solve(pair: KrylovPair, eps: float) -> RitzResult:
    """Solve J_hat |d> = d R_hat |d> after Gram-eigenvalue thresholding.

    Gram eigendirections with eigenvalue <= eps are projected out; the
    survivors are whitened (scaled by sigma^{-1/2}) so the reduced problem
    is an ordinary Hermitian eigenproblem.
    """
    if eps < 0:
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
    if spectral_width <= 0:
        raise ZeroWidth("commutator spectrum has zero width")
    return float(np.pi / spectral_width)


def noise_rate(pair_estimated: KrylovPair, pair_exact: KrylovPair,
               j_spectral_norm: float) -> float:
    """Unitless perturbation size omega of an estimated pair.

    omega = ||R_hat - R||_2 + ||J_hat - J||_2 / ||J||_2, where the
    commutator norm ||J||_2 = 2 (lam_max - lam_min) is supplied by the
    caller (the simulator knows it exactly).
    """
    if pair_estimated.m != pair_exact.m:
        raise DimensionMismatch("pairs have different Krylov dimensions")
    if j_spectral_norm <= 0:
        raise ValueError("j_spectral_norm must be positive")
    dR = np.linalg.norm(pair_estimated.R_hat - pair_exact.R_hat, ord=2)
    dJ = np.linalg.norm(pair_estimated.J_hat - pair_exact.J_hat, ord=2)
    return float(dR + dJ / j_spectral_norm)
