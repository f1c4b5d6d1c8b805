"""Unit tests for arithmetic-unit models."""

import pytest

from repro.core.ops import ResourceClass
from repro.errors import AllocationError
from repro.resources.units import FixedDelayUnit, TelescopicUnit


class TestFixedDelayUnit:
    def test_cycles_at_matching_clock(self):
        unit = FixedDelayUnit("A1", ResourceClass.ADDER, delay_ns=15.0)
        assert unit.cycles(15.0) == 1

    def test_cycles_at_fast_clock(self):
        unit = FixedDelayUnit("A1", ResourceClass.ADDER, delay_ns=20.0)
        assert unit.cycles(15.0) == 2

    def test_not_telescopic(self):
        unit = FixedDelayUnit("A1", ResourceClass.ADDER)
        assert not unit.is_telescopic
        assert unit.worst_delay_ns == 15.0

    def test_bad_delay(self):
        with pytest.raises(AllocationError, match="positive"):
            FixedDelayUnit("A1", ResourceClass.ADDER, delay_ns=0)


class TestTelescopicUnit:
    def test_paper_timing(self):
        tau = TelescopicUnit(
            "TM1",
            ResourceClass.MULTIPLIER,
            short_delay_ns=15.0,
            long_delay_ns=20.0,
        )
        assert tau.is_telescopic
        assert tau.fast_cycles(15.0) == 1
        assert tau.slow_cycles(15.0) == 2
        assert tau.worst_delay_ns == 20.0

    def test_deep_telescope(self):
        tau = TelescopicUnit(
            "TM1",
            ResourceClass.MULTIPLIER,
            short_delay_ns=10.0,
            long_delay_ns=35.0,
        )
        assert tau.slow_cycles(10.0) == 4

    def test_degenerate_rejected(self):
        with pytest.raises(AllocationError, match="must exceed"):
            TelescopicUnit(
                "TM1",
                ResourceClass.MULTIPLIER,
                short_delay_ns=15.0,
                long_delay_ns=15.0,
            )

    def test_completion_signal_name(self):
        tau = TelescopicUnit("TM1", ResourceClass.MULTIPLIER)
        assert tau.completion_signal_name() == "C_TM1"

