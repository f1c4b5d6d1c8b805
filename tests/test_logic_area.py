"""Unit tests for the two-level area model."""

from repro.logic.area import (
    AREA_PER_FLIP_FLOP,
    FunctionArea,
    LogicBlockArea,
    cover_area,
    function_area,
)
from repro.logic.terms import BooleanFunction

from conftest import cube


class TestFunctionArea:
    def test_single_term_no_or_cost(self):
        area = FunctionArea(name="f", num_terms=1, num_literals=3)
        assert area.combinational_area == 3.0

    def test_multi_term_adds_or_inputs(self):
        area = FunctionArea(name="f", num_terms=2, num_literals=4)
        assert area.combinational_area == 6.0

    def test_constant_zero(self):
        f = BooleanFunction(width=2, ones=frozenset())
        assert function_area("z", f).combinational_area == 0.0

    def test_xor_area(self):
        f = BooleanFunction(width=2, ones=frozenset({0b01, 0b10}))
        area = function_area("xor", f)
        assert area.num_terms == 2
        assert area.num_literals == 4
        assert area.combinational_area == 6.0

    def test_cover_area_counts_literals(self):
        cover = (cube("1-0"), cube("01-"))
        area = cover_area("c", cover)
        assert area.num_literals == 4


class TestLogicBlockArea:
    def test_sequential_area_per_ff(self):
        block = LogicBlockArea(name="b", functions=(), num_flip_flops=6)
        assert block.sequential_area == 6 * AREA_PER_FLIP_FLOP

    def test_total_is_sum(self):
        f = FunctionArea(name="f", num_terms=1, num_literals=5)
        block = LogicBlockArea(name="b", functions=(f,), num_flip_flops=2)
        assert block.total_area == 5.0 + 2 * AREA_PER_FLIP_FLOP

    def test_merge(self):
        f = FunctionArea(name="f", num_terms=1, num_literals=5)
        a = LogicBlockArea(name="a", functions=(f,), num_flip_flops=1)
        b = LogicBlockArea(name="b", functions=(f,), num_flip_flops=2)
        merged = a.merged_with(b, "ab")
        assert merged.num_flip_flops == 3
        assert merged.combinational_area == 10.0

    def test_describe(self):
        block = LogicBlockArea(name="b", functions=(), num_flip_flops=1)
        assert "1 FFs" in block.describe()
