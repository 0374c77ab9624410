"""Exception types shared across the package, and the argument rules that
every public entry states through them:

    as_array            the one conversion rule: the dtype follows the data
    require_shape       an array argument has the shape the operation needs
    negligible          a block is zero up to roundoff next to its matrix
    require_invertible  a matrix is numerically invertible
    allocated           an array too large to address fails as one too large
                        to allocate, a MemoryError
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

    ``cond_estimate`` holds the exact 1-norm condition number
    |K|_1 |K^-1|_1 of the refused step matrix (inf when K is singular);
    the attribute keeps its name for API stability.
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


def as_array(value) -> np.ndarray:
    """value as an array of dtype np.result_type(value, float64), so float64
    unless its type is complex: the dtype follows the types, never the values."""
    arr = np.asarray(value)
    return arr.astype(np.result_type(arr, np.float64), copy=False)


def require_shape(value, shape, name, default=None) -> np.ndarray:
    """value, or default when value is None, through as_array; raises
    ShapeMismatchError naming the argument unless its shape is shape."""
    arr = as_array(default if value is None else value)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def allocated(make, *args) -> np.ndarray:
    """make(*args), a numpy call that allocates an array from valid sizes, so
    that its one ValueError is numpy's refusal of a byte count beyond the
    address space; that refusal is raised as MemoryError, as an allocation
    that the memory cannot hold is."""
    try:
        return make(*args)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def negligible(part, scale) -> bool:
    """True when part is empty or max |part_ij| <= 1e-12 max(1, max
    |scale_ij|): zero up to the roundoff of a matrix of scale's size.  A
    part holding NaN is never negligible."""
    part = np.abs(part)
    return part.size == 0 or bool(part.max() <= 1e-12 * max(1.0, np.abs(scale).max()))

