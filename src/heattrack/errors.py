"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HeattrackError",
    "ConfigError",
    "RankDeficiencyError",
    "SingularSystemError",
    "InsufficientSignalError",
    "InsufficientDataError",
    "DegenerateNodesError",
    "NonConvergenceError",
    "StageError",
]


class HeattrackError(Exception):
    """Base class for package-specific failures."""


class ConfigError(HeattrackError, ValueError):
    """Malformed, incomplete, or unknown configuration content."""


class RankDeficiencyError(HeattrackError, ValueError):
    """A matrix that must have full row rank does not.

    Carries the offending smallest singular value in ``sigma_min``.
    """

    def __init__(self, message: str, sigma_min: float):
        super().__init__(f"{message} (sigma_min={sigma_min:.6e})")
        self.sigma_min = float(sigma_min)


class SingularSystemError(HeattrackError, ValueError):
    """A linear system that must be solvable is singular.

    ``condition`` holds a reciprocal-condition or smallest-singular-value
    estimate of the offending operator where one is available.
    """

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message = f"{message} (condition estimate {condition:.6e})"
        super().__init__(message)
        self.condition = condition


class InsufficientSignalError(HeattrackError, ValueError):
    """A fit was requested on data with too little usable signal."""


class InsufficientDataError(HeattrackError, ValueError):
    """An aggregate (fit, report) was requested on too few points."""


class DegenerateNodesError(HeattrackError, ValueError):
    """Constraint nodes are degenerate (repeated or rank-deficient)."""


class NonConvergenceError(HeattrackError, RuntimeError):
    """An iterative solve hit its iteration cap.

    ``best`` carries the final iterate so callers can inspect it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class StageError(HeattrackError, RuntimeError):
    """A named pipeline stage failed; wraps the original exception."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause!r}")
        self.stage = stage
        self.cause = cause
