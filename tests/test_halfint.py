from fractions import Fraction

import pytest

from fracmatch.halfint import HalfInt


def test_construction_and_value():
    assert HalfInt(0).units == 0
    assert HalfInt(5).as_fraction() == Fraction(5, 2)


def test_rejects_bad_units():
    with pytest.raises(ValueError):
        HalfInt(-1)
    with pytest.raises(TypeError):
        HalfInt(1.5)


def test_ordering_and_arithmetic():
    assert HalfInt(3) < HalfInt(4)
    # sums are taken on the units, as ng_sum does
    assert HalfInt(HalfInt(2).units + HalfInt(3).units) == HalfInt(5)


def test_str_forms():
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt(7)) == "7/2"
    assert str(HalfInt(0)) == "0"
