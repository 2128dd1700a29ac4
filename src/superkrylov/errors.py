"""Exception types raised across the package.

Every error the package raises on purpose is a `SuperKrylovError` of one of
three kinds:

- a config error (`ConfigParse`): the experiment configuration could not be
  read or breaks a rule, and the CLI exits 2;
- invalid input (`InvalidInput`): an argument breaks a precondition, and the
  message names the argument and the rule; met inside a sweep, the CLI
  exits 3;
- a numerical failure (`SingularSystem`, `AllModesThresholded`,
  `ConvergenceFailure`): valid input on which a computation could not finish,
  and the CLI exits 3.
"""

import contextlib


class SuperKrylovError(Exception):
    """Base class for all package-specific errors."""


class ConfigParse(SuperKrylovError, ValueError):
    """Experiment configuration file could not be parsed."""


class InvalidInput(SuperKrylovError, ValueError):
    """An argument breaks a precondition; the message says which and why."""


class SingularSystem(SuperKrylovError, RuntimeError):
    """A linear system could not be solved to finite values, or a minimax
    certificate variance came out negative or NaN (too ill-conditioned to
    certify)."""


class AllModesThresholded(SuperKrylovError, RuntimeError):
    """Threshold removed every eigenmode of the Gram matrix."""


class ConvergenceFailure(SuperKrylovError, RuntimeError):
    """An iterative numerical routine failed to converge."""


@contextlib.contextmanager
def _cell(name: str):
    """Prefix a SuperKrylovError leaving the block with the cell's name."""
    try:
        yield
    except SuperKrylovError as exc:
        exc.args = (f"{name}: {exc}",)  # the type, so the exit code, stays
        raise
