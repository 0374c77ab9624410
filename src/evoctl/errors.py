"""Exception types shared across the package, and the invertibility rule."""

import numpy as np


class EvoctlError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(EvoctlError, ValueError):
    """Grid parameters do not describe a usable 1D staggered grid."""


class ShapeMismatchError(EvoctlError, ValueError):
    """An array has the wrong shape for the requested operation."""


class NumericalRankError(EvoctlError, RuntimeError):
    """A null-space or rank computation did not produce a clean answer."""


class PositivityError(EvoctlError, ValueError):
    """A quantity that must be positive (definite) is not.

    Carries the offending direction in ``witness`` when available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisViolationError(EvoctlError, ValueError):
    """A structural hypothesis of an operation is violated.

    Used when input matrices fail a requirement such as selfadjointness,
    block invertibility, or a compatibility condition, rather than a mere
    shape problem.
    """


class StepSingularityError(EvoctlError, RuntimeError):
    """The implicit step matrix is singular or numerically unusable.

    Carries a condition-number estimate in ``cond_estimate``.
    """

    def __init__(self, message, cond_estimate=None):
        super().__init__(message)
        self.cond_estimate = cond_estimate


def require_invertible(mat, message):
    """Raise HypothesisViolationError(message) unless mat is numerically
    invertible: its smallest singular value must exceed 1e-12 max(its
    largest, 1)."""
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1.0):
        raise HypothesisViolationError(message)
