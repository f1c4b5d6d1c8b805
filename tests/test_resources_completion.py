"""Unit tests for completion models."""

import random

import pytest

from repro.core.ops import ResourceClass
from repro.errors import SimulationError
from repro.resources.completion import (
    AllFastCompletion,
    AllSlowCompletion,
    AssignmentCompletion,
    BernoulliCompletion,
    OperandCompletion,
    TraceCompletion,
)
from repro.resources.units import TelescopicUnit

TAU = TelescopicUnit("TM1", ResourceClass.MULTIPLIER)
RNG = random.Random(0)


class TestBernoulli:
    def test_bounds_checked(self):
        with pytest.raises(SimulationError, match="P must be"):
            BernoulliCompletion(1.5)

    def test_degenerate_probabilities(self):
        rng = random.Random(1)
        assert all(
            BernoulliCompletion(1.0).sample_level("o", TAU, None, rng) == 0
            for _ in range(50)
        )
        assert all(
            BernoulliCompletion(0.0).sample_level("o", TAU, None, rng) == 1
            for _ in range(50)
        )


class TestDeterministicModels:
    def test_all_fast(self):
        assert AllFastCompletion().sample_level("o", TAU, None, RNG) == 0

    def test_all_slow(self):
        assert AllSlowCompletion().sample_level("o", TAU, None, RNG) == 1


class TestTrace:
    def test_replays_in_order(self):
        model = TraceCompletion({"o": [True, False, True]})
        seq = [model.sample_level("o", TAU, None, RNG) for _ in range(3)]
        assert seq == [0, 1, 0]

    def test_exhaustion_raises(self):
        model = TraceCompletion({"o": [True]})
        model.sample_level("o", TAU, None, RNG)
        with pytest.raises(SimulationError, match="exhausted"):
            model.sample_level("o", TAU, None, RNG)

    def test_missing_op_raises(self):
        with pytest.raises(SimulationError, match="no completion trace"):
            TraceCompletion({}).sample_level("o", TAU, None, RNG)

    def test_reset_restarts(self):
        model = TraceCompletion({"o": [True]})
        model.sample_level("o", TAU, None, RNG)
        model.reset()
        assert model.sample_level("o", TAU, None, RNG) == 0


class TestAssignment:
    def test_lookup(self):
        model = AssignmentCompletion({"a": True, "b": False})
        assert model.sample_level("a", TAU, None, RNG) == 0
        assert model.sample_level("b", TAU, None, RNG) == 1

    def test_missing_raises(self):
        with pytest.raises(SimulationError, match="no fast/slow"):
            AssignmentCompletion({}).sample_level("x", TAU, None, RNG)


class TestOperandCompletion:
    class _StubCsg:
        def is_fast(self, a, b):
            return a + b < 10

    def test_uses_operands(self):
        model = OperandCompletion({"TM1": self._StubCsg()})
        assert model.sample_level("o", TAU, (2, 3), RNG) == 0
        assert model.sample_level("o", TAU, (20, 3), RNG) == 1

    def test_requires_operands(self):
        model = OperandCompletion({"TM1": self._StubCsg()})
        with pytest.raises(SimulationError, match="operand values"):
            model.sample_level("o", TAU, None, RNG)

    def test_requires_csg(self):
        model = OperandCompletion({})
        with pytest.raises(SimulationError, match="no completion-signal"):
            model.sample_level("o", TAU, (1, 2), RNG)
