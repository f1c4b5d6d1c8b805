"""Unit tests for repro.core.ops."""

import pytest

from repro.core.ops import DEFAULT_TELESCOPIC_CLASSES, OpType, ResourceClass


class TestOpType:
    def test_mul_evaluates(self):
        assert OpType.MUL.evaluate(6, 7) == 42

    def test_add_evaluates(self):
        assert OpType.ADD.evaluate(6, 7) == 13

    def test_sub_evaluates(self):
        assert OpType.SUB.evaluate(6, 7) == -1

    def test_lt_evaluates_true(self):
        assert OpType.LT.evaluate(1, 2) == 1

    def test_lt_evaluates_false(self):
        assert OpType.LT.evaluate(2, 1) == 0

    def test_neg_is_unary(self):
        assert OpType.NEG.arity == 1
        assert OpType.NEG.evaluate(5) == -5

    def test_shifts(self):
        assert OpType.SHL.evaluate(1, 3) == 8
        assert OpType.SHR.evaluate(8, 3) == 1

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError, match="expects 2 operands"):
            OpType.MUL.evaluate(1)

    def test_commutativity_flags(self):
        assert OpType.MUL.commutative
        assert OpType.ADD.commutative
        assert not OpType.SUB.commutative

    def test_resource_classes(self):
        assert OpType.MUL.resource_class is ResourceClass.MULTIPLIER
        assert OpType.ADD.resource_class is ResourceClass.ADDER
        assert OpType.SUB.resource_class is ResourceClass.SUBTRACTOR

    def test_comparison_uses_subtractor_class(self):
        assert OpType.LT.resource_class is ResourceClass.SUBTRACTOR


def test_default_telescopic_classes():
    assert ResourceClass.MULTIPLIER in DEFAULT_TELESCOPIC_CLASSES
    assert ResourceClass.ADDER not in DEFAULT_TELESCOPIC_CLASSES
