"""Unit tests for ASAP/ALAP/critical-path analyses."""

import pytest
from hypothesis import given, settings

from repro.core.analysis import (
    alap_start_times,
    asap_start_times,
    critical_path,
    finish_times,
    profile,
    schedule_length,
    uniform_durations,
)
from repro.core.builder import DFGBuilder
from repro.errors import GraphError

from conftest import random_dfgs


@pytest.fixture()
def diamond():
    b = DFGBuilder("diamond")
    x = b.input("x")
    top = b.mul("top", x, 2)
    left = b.add("left", top, 1)
    right = b.mul("right", top, 3)
    bottom = b.add("bottom", left, right)
    b.output("y", bottom)
    return b.build()


class TestAsap:
    def test_levels(self, diamond):
        start = asap_start_times(diamond)
        assert start == {"top": 0, "left": 1, "right": 1, "bottom": 2}

    def test_durations_weighting(self, diamond):
        start = asap_start_times(
            diamond, {"top": 2, "left": 1, "right": 3, "bottom": 1}
        )
        assert start["bottom"] == 5  # top(2) + right(3)

    def test_extra_edges_serialize(self, diamond):
        start = asap_start_times(diamond, extra_edges=(("left", "right"),))
        assert start["right"] == 2
        assert start["bottom"] == 3

    def test_backward_pointing_extra_edge(self, diamond):
        # right is inserted after left; an arc right->left must still work.
        start = asap_start_times(diamond, extra_edges=(("right", "left"),))
        assert start["left"] == 2

    def test_bad_duration_rejected(self, diamond):
        with pytest.raises(GraphError, match="must be >= 1"):
            asap_start_times(diamond, {**uniform_durations(diamond), "top": 0})

    def test_missing_duration_rejected(self, diamond):
        with pytest.raises(GraphError, match="no duration"):
            asap_start_times(diamond, {"top": 1})


class TestAlapAndMobility:
    def test_alap_at_critical_horizon(self, diamond):
        alap = alap_start_times(diamond)
        assert alap == {"top": 0, "left": 1, "right": 1, "bottom": 2}

    def test_alap_with_slack(self, diamond):
        alap = alap_start_times(diamond, horizon=5)
        assert alap["bottom"] == 4
        assert alap["top"] == 2

    def test_short_horizon_rejected(self, diamond):
        with pytest.raises(GraphError, match="shorter than the critical"):
            alap_start_times(diamond, horizon=2)


class TestCriticalPath:
    def test_path_endpoints(self, diamond):
        path = critical_path(diamond)
        assert path[0] == "top"
        assert path[-1] == "bottom"
        assert len(path) == 3

    def test_weighted_path_prefers_long_branch(self, diamond):
        path = critical_path(
            diamond, {"top": 1, "left": 5, "right": 1, "bottom": 1}
        )
        assert "left" in path

    def test_schedule_length(self, diamond):
        assert schedule_length(diamond) == 3


class TestFinishTimes:
    def test_finish(self, diamond):
        start = asap_start_times(diamond)
        finish = finish_times(start, uniform_durations(diamond))
        assert finish["bottom"] == 3


class TestProfile:
    def test_profile_fields(self, diamond):
        prof = profile(diamond)
        assert prof.num_ops == 4
        assert prof.depth == 3
        assert prof.width == 2
        assert dict(prof.ops_by_class) == {"mul": 2, "add": 2}
        assert "diamond" in str(prof)


@settings(max_examples=30, deadline=None)
@given(random_dfgs)
def test_asap_respects_dependencies(dfg):
    """Property: every op starts after all its predecessors finish."""
    start = asap_start_times(dfg)
    for op in dfg:
        for pred in dfg.predecessors(op.name):
            assert start[op.name] >= start[pred] + 1


@settings(max_examples=30, deadline=None)
@given(random_dfgs)
def test_alap_not_before_asap(dfg):
    """Property: no op's latest start precedes its earliest start."""
    asap = asap_start_times(dfg)
    alap = alap_start_times(dfg)
    assert all(alap[name] >= asap[name] for name in asap)
