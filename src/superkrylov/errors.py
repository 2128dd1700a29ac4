"""Exception types raised across the package."""


class SuperKrylovError(Exception):
    """Base class for all package-specific errors."""


class NegativeCoupling(SuperKrylovError, ValueError):
    """Heisenberg coupling J_jk must be nonnegative."""


class IndexOutOfRange(SuperKrylovError, IndexError):
    """Qubit or vertex index outside the valid range."""


class NonBipartiteEdge(SuperKrylovError, ValueError):
    """Edge connects two vertices on the same side of the bipartition."""


class DimensionCap(SuperKrylovError, ValueError):
    """Requested dense object exceeds the desk-scale size limit."""


class DimensionMismatch(SuperKrylovError, ValueError):
    """Operands have incompatible dimensions."""


class NotHermitian(SuperKrylovError, ValueError):
    """Matrix fails the Hermiticity tolerance."""


class ConvergenceFailure(SuperKrylovError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class OverlapOutOfRange(SuperKrylovError, ValueError):
    """Requested ground/top overlap is outside (0, 0.5]."""


class BadWindow(SuperKrylovError, ValueError):
    """Measurement window is invalid (touches t=0 or is empty)."""


class NonPositiveBound(SuperKrylovError, ValueError):
    """Ellipsoid norm bound must be positive."""


class BadHorizon(SuperKrylovError, ValueError):
    """Estimator horizon must exceed the last measurement time."""


class OutOfHorizon(SuperKrylovError, ValueError):
    """Evaluation time lies outside [0, tau]."""


class SingularSystem(SuperKrylovError, RuntimeError):
    """A linear system could not be solved to finite values, or a minimax
    certificate variance came out negative or NaN (too ill-conditioned to
    certify)."""


class MissingFit(SuperKrylovError, KeyError):
    """No minimax fit supplied for a required index gap k - j."""


class AllModesThresholded(SuperKrylovError, RuntimeError):
    """Threshold removed every eigenmode of the Gram matrix."""


class MissingTopEnergy(SuperKrylovError, ValueError):
    """Class-1 post-processing needs the known top energy."""


class ZeroWidth(SuperKrylovError, ValueError):
    """Spectral width is zero; timestep selection is degenerate."""


class ConfigParse(SuperKrylovError, ValueError):
    """Experiment configuration file could not be parsed."""
