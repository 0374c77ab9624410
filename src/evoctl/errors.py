"""Exception types shared across the package, and the argument rules that
every public entry states through them:

    require_shape       an array argument has the shape the operation needs
    negligible          a block is zero up to roundoff next to its matrix
    require_invertible  a matrix is numerically invertible
    require_geometry    a check finds the model data it reads on the system
"""

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


def require_shape(value, shape, name, default=None) -> np.ndarray:
    """value, or default when value is None, as a complex array; raises
    ShapeMismatchError naming the argument unless its shape is shape."""
    arr = np.asarray(default if value is None else value, dtype=complex)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def negligible(part, scale) -> bool:
    """True when part is empty or max |part_ij| <= 1e-12 max(1, max
    |scale_ij|): zero up to the roundoff of a matrix of scale's size.  A
    part holding NaN is never negligible."""
    part = np.abs(part)
    return part.size == 0 or bool(part.max() <= 1e-12 * max(1.0, np.abs(scale).max()))


def require_geometry(sys, keys, check) -> tuple:
    """The values of keys in sys.geometry, in key order; raises
    HypothesisViolationError naming check and every missing key."""
    geo = sys.geometry or {}
    missing = [key for key in keys if key not in geo]
    if missing:
        raise HypothesisViolationError(
            f"{check} needs {', '.join(missing)} in the system geometry"
        )
    return tuple(geo[key] for key in keys)
