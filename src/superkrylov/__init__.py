"""Ground-state energy estimation via commutator-operator Krylov projection.

The pipeline estimates the gap lam_0 - lam_{N-1} as the lowest eigenvalue
of the commutator map X -> [H, X], projected onto a Krylov family whose
Gram matrix consists of recovery probabilities -- the only quantity a
device would have to measure.  Noisy measurements are smoothed by a
minimax state-space estimator that also produces worst-case error
certificates for the derivative values feeding the projected problem.
"""

from .errors import (
    AllModesThresholded,
    ConfigParse,
    ConvergenceFailure,
    InvalidInput,
    SingularSystem,
    SuperKrylovError,
)
from .pauli import (
    HamiltonianClass,
    PauliHamiltonian,
    PauliString,
    assemble_dense,
    build_bipartite,
    build_heisenberg,
    heisenberg_chain,
    pauli_word_matrix,
    qubit_factors,
)
from .dynamics import (
    SpectralDecomposition,
    build_initial_state,
    eigenbasis_weights,
    eigendecompose,
    exact_J_entry,
    recovery_derivative,
    recovery_probability,
)
from .measurement import (
    NoiseBudget,
    estimated_eta_norm_sq,
    forcing_norm_sq,
    measure_series,
    sample_grid,
)
from .minimax import (
    EstimatorModel,
    MinimaxFit,
    error_certificate,
    evaluate_component,
    evaluate_x0,
    evaluate_x1,
    fit,
    fit_batch,
    forcing_gram,
    kernel_matrix,
)
from .solver import (
    KrylovPair,
    RitzResult,
    assemble_pair_exact,
    assemble_pair_minimax,
    choose_timestep,
    ground_energy,
    noise_rate,
    threshold_solve,
)
from .experiments import (
    ExperimentConfig,
    build_context,
    parse_config,
    run,
)

__version__ = "0.1.0"
