"""Unit tests for cube algebra and boolean functions."""

import pytest

from repro.errors import LogicError
from repro.logic.terms import BooleanFunction, Cube

from conftest import cube


class TestCubeConstruction:
    def test_from_string_round_trip(self):
        for text in ("1-0", "---", "111", "0-1"):
            assert cube(text).to_string() == text

    def test_bad_character(self):
        with pytest.raises(LogicError, match="bad cube character"):
            cube("1x0")

    def test_minterm(self):
        term = Cube.minterm(3, 5)
        assert term.to_string() == "101"

    def test_minterm_out_of_range(self):
        with pytest.raises(LogicError, match="out of range"):
            Cube.minterm(3, 8)

    def test_value_outside_care_rejected(self):
        with pytest.raises(LogicError, match="outside the care mask"):
            Cube(width=3, care=0b001, value=0b010)


class TestCubeAlgebra:
    def test_num_literals(self):
        assert cube("1-0").num_literals == 2
        assert cube("---").num_literals == 0

    def test_contains(self):
        term = cube("1-")  # var0=1, var1 free
        assert term.contains(0b01)
        assert term.contains(0b11)
        assert not term.contains(0b00)

    def test_merge_distance_one(self):
        a = cube("10")
        b = cube("11")
        merged = a.merge_distance_one(b)
        assert merged is not None
        assert merged.to_string() == "1-"

    def test_merge_rejects_distance_two(self):
        a = cube("00")
        b = cube("11")
        assert a.merge_distance_one(b) is None

    def test_merge_rejects_different_masks(self):
        a = cube("1-")
        b = cube("11")
        assert a.merge_distance_one(b) is None


class TestBooleanFunction:
    def test_values(self):
        f = BooleanFunction(
            width=2, ones=frozenset({0b11}), dont_cares=frozenset({0b01})
        )
        assert f.value_at(0b11) is True
        assert f.value_at(0b01) is None
        assert f.value_at(0b00) is False

    def test_constants(self):
        zero = BooleanFunction(width=2, ones=frozenset())
        assert zero.is_constant_zero
        one = BooleanFunction(width=1, ones=frozenset({0, 1}))
        assert one.is_constant_one

    def test_overlap_rejected(self):
        with pytest.raises(LogicError, match="both one and don't-care"):
            BooleanFunction(
                width=1, ones=frozenset({0}), dont_cares=frozenset({0})
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(LogicError, match="out of range"):
            BooleanFunction(width=1, ones=frozenset({5}))
