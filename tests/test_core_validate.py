"""Unit tests for graph validation and schedule-arc checking."""

import pytest

from repro.core.builder import DFGBuilder
from repro.core.validate import validate_dfg, validate_extra_edges
from repro.errors import GraphError


@pytest.fixture()
def dfg():
    b = DFGBuilder("v")
    x, y = b.inputs("x", "y")
    m1 = b.mul("m1", x, y)
    m2 = b.mul("m2", x, 2)
    s = b.add("s", m1, m2)
    b.output("out", s)
    return b.build()


class TestValidateDfg:
    def test_valid_graph_passes(self, dfg):
        validate_dfg(dfg)
        validate_dfg(dfg, require_outputs=True)

    def test_missing_outputs_flagged(self):
        b = DFGBuilder("noout")
        x = b.input("x")
        b.mul("m", x, x)
        dfg = b.build()
        with pytest.raises(GraphError, match="no primary outputs"):
            validate_dfg(dfg, require_outputs=True)


class TestValidateExtraEdges:
    def test_legal_arc(self, dfg):
        validate_extra_edges(dfg, (("m1", "m2"),))

    def test_self_loop_rejected(self, dfg):
        with pytest.raises(GraphError, match="self-loop"):
            validate_extra_edges(dfg, (("m1", "m1"),))

    def test_unknown_op_rejected(self, dfg):
        with pytest.raises(GraphError, match="unknown ops"):
            validate_extra_edges(dfg, (("m1", "nope"),))

    def test_cycle_through_data_edge_rejected(self, dfg):
        # s depends on m1; arc s->m1 closes a cycle.
        with pytest.raises(GraphError, match="cycle"):
            validate_extra_edges(dfg, (("s", "m1"),))

    def test_cycle_through_two_arcs_rejected(self, dfg):
        with pytest.raises(GraphError, match="cycle"):
            validate_extra_edges(dfg, (("m1", "m2"), ("m2", "m1")))
