"""Exception types shared across the package.

The CLI maps these onto process exit codes: invalid input is a usage
problem (exit 1), a degenerate sampling domain is exit 2, and the
numerical failures are exit 3.
"""


class KoopcertError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(KoopcertError, ValueError):
    """Malformed argument: wrong shape, non-finite values, bad config key."""


class DegenerateDomainError(KoopcertError):
    """Sampling domain rejected too many points (weight floor too high)."""


class SolverFailureError(KoopcertError):
    """An eigensolver failed to converge, or the requested rank exceeds the
    effective rank of the data."""


class IntegrationBlowupError(KoopcertError):
    """Trajectory escaped the guard radius or produced non-finite state."""


class DivergenceError(KoopcertError):
    """Brute-force series evaluation did not contract within the step cap."""


class ContractionViolatedError(KoopcertError):
    """The Lyapunov series of a fit is refused: its spectral radius rho(H) is
    not below one, so the series diverges, or the fitted operator norm and the
    anchors' observed decay ratio are both >= 1, so the data expand."""
