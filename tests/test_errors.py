"""Tests for the argument rules of evoctl.errors: the dtype rule, the
shape rule and the roundoff-zero rule."""

import numpy as np
import pytest

from evoctl.errors import (
    HypothesisViolationError,
    ShapeMismatchError,
    as_array,
    negligible,
    require_shape,
)


class TestAsArray:
    def test_keeps_an_array_of_its_own_dtype(self):
        """A float64 or complex128 array comes back as itself, uncopied."""
        for arr in (np.ones(3), np.ones(3, dtype=complex)):
            assert as_array(arr) is arr

    def test_python_scalars_follow_their_type(self):
        assert as_array(2).dtype == np.float64
        assert as_array(2.0).dtype == np.float64
        assert as_array(2 + 0j).dtype == np.complex128


class TestRequireShape:
    def test_dtype_follows_the_data(self):
        """Integers, booleans and reals become float64 and complex values
        complex128, whatever the values: a zero imaginary part stays."""
        out = require_shape([[1, 2], [3, 4]], (2, 2), "P0")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])
        assert require_shape([True, False], (2,), "mask").dtype == np.float64
        assert require_shape(np.ones(2, dtype=np.float32), (2,), "x").dtype == np.float64
        out = require_shape([1 + 0j, 2], (2,), "x")
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, [1, 2])
        assert require_shape(np.ones(2, dtype=np.complex64), (2,), "x").dtype == np.complex128

    def test_default_replaces_only_none(self):
        out = require_shape(None, (3,), "z1", default=np.zeros(3))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.zeros(3))
        given = require_shape(np.ones(3), (3,), "z1", default=np.zeros(3))
        np.testing.assert_array_equal(given, np.ones(3))

    def test_zero_value_is_not_replaced(self):
        """Only None selects the default; a falsy value is kept."""
        out = require_shape(0.0, (), "scalar", default=1.0)
        assert out == 0.0

    def test_message_names_argument_and_both_shapes(self):
        with pytest.raises(ShapeMismatchError,
                           match=r"^u_bd must have shape \(5, 2\), got \(4, 2\)$"):
            require_shape(np.zeros((4, 2)), (5, 2), "u_bd")

    def test_default_is_checked_too(self):
        with pytest.raises(ShapeMismatchError, match=r"^Cmat must have shape \(2, 3\)"):
            require_shape(None, (2, 3), "Cmat", default=np.zeros((3, 2)))


class TestNegligible:
    def test_empty_part_is_negligible(self):
        assert negligible(np.zeros((0, 4)), np.ones((4, 4)))

    def test_nan_part_is_never_negligible(self):
        part = np.array([0.0, np.nan])
        assert not negligible(part, 1e300 * np.ones(2))

    @pytest.mark.parametrize("scale", [0.5, 1e6])
    def test_threshold_is_relative_to_max_one_and_scale(self, scale):
        """The bound is 1e-12 max(1, max |scale|): below 1 it is absolute."""
        bound = 1e-12 * max(1.0, scale)
        S = np.array([[0.5 * scale, -scale], [0.0, 0.25]])
        assert negligible(np.array([bound]), S)
        assert not negligible(np.array([bound * (1 + 1e-9)]), S)

    def test_complex_part_is_measured_by_modulus(self):
        assert negligible(np.array([0.6e-12 + 0.7e-12j]), np.ones(1))
        assert not negligible(np.array([0.6e-12 + 0.9e-12j]), np.ones(1))

