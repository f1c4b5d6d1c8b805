"""Unit tests for the DataflowGraph model."""

import pytest

from repro.core.dfg import (
    ConstRef,
    DataflowGraph,
    InputRef,
    OpRef,
    as_operand,
    transitive_dependency,
)
from repro.core.ops import OpType, ResourceClass
from repro.errors import GraphError


@pytest.fixture()
def graph() -> DataflowGraph:
    g = DataflowGraph("g")
    g.add_input("a")
    g.add_input("b")
    g.add_op("m", OpType.MUL, "a", "b")
    g.add_op("n", OpType.ADD, "m", 5)
    g.add_op("o", OpType.SUB, "n", "m")
    g.set_output("y", "o")
    return g


class TestConstruction:
    def test_inputs_in_order(self, graph):
        assert graph.inputs == ("a", "b")

    def test_duplicate_input_rejected(self, graph):
        with pytest.raises(GraphError, match="duplicate primary input"):
            graph.add_input("a")

    def test_duplicate_op_rejected(self, graph):
        with pytest.raises(GraphError, match="duplicate operation"):
            graph.add_op("m", OpType.ADD, "a", "b")

    def test_op_name_colliding_with_input(self, graph):
        with pytest.raises(GraphError, match="collides"):
            graph.add_op("a", OpType.ADD, "m", "m")

    def test_input_name_colliding_with_op(self, graph):
        with pytest.raises(GraphError, match="collides"):
            graph.add_input("m")

    def test_unknown_operand_rejected(self, graph):
        with pytest.raises(GraphError, match="neither an existing"):
            graph.add_op("p", OpType.ADD, "nope", "a")

    def test_forward_reference_impossible(self):
        g = DataflowGraph("fwd")
        g.add_input("x")
        with pytest.raises(GraphError):
            g.add_op("p", OpType.ADD, "q", "x")

    def test_wrong_arity(self, graph):
        with pytest.raises(GraphError, match="expects 2 operands"):
            graph.add_op("p", OpType.ADD, "m")

    def test_output_must_be_op(self, graph):
        with pytest.raises(GraphError, match="is not an operation"):
            graph.set_output("z", "a")

    def test_duplicate_output(self, graph):
        with pytest.raises(GraphError, match="duplicate primary output"):
            graph.set_output("y", "m")

    def test_bool_operand_rejected(self):
        with pytest.raises(GraphError, match="booleans"):
            as_operand(True)


class TestStructure:
    def test_len_and_contains(self, graph):
        assert len(graph) == 3
        assert "m" in graph
        assert "zz" not in graph

    def test_predecessors_distinct(self, graph):
        assert graph.predecessors("o") == ("n", "m")

    def test_successors(self, graph):
        assert set(graph.successors("m")) == {"n", "o"}

    def test_edges(self, graph):
        assert set(graph.edges()) == {
            ("m", "n"),
            ("m", "o"),
            ("n", "o"),
        }

    def test_source_and_sink_ops(self, graph):
        assert graph.source_ops() == ("m",)
        assert graph.sink_ops() == ("o",)

    def test_ops_of_class(self, graph):
        assert graph.ops_of_class(ResourceClass.MULTIPLIER) == ("m",)
        assert graph.ops_of_class(ResourceClass.ADDER) == ("n",)

    def test_resource_classes_in_order(self, graph):
        assert graph.resource_classes() == (
            ResourceClass.MULTIPLIER,
            ResourceClass.ADDER,
            ResourceClass.SUBTRACTOR,
        )

    def test_topological_order_is_insertion_order(self, graph):
        assert graph.topological_order() == ("m", "n", "o")

    def test_op_lookup_error(self, graph):
        with pytest.raises(GraphError, match="no operation named"):
            graph.op("missing")

    def test_same_producer_both_ports(self):
        g = DataflowGraph("sq")
        g.add_input("x")
        g.add_op("m", OpType.MUL, "x", "x")
        g.add_op("sq", OpType.MUL, "m", "m")
        assert g.op("sq").data_predecessors() == ("m", "m")
        assert g.predecessors("sq") == ("m",)


class TestEvaluate:
    def test_values(self, graph):
        values = graph.evaluate({"a": 3, "b": 4})
        assert values["m"] == 12
        assert values["n"] == 17
        assert values["o"] == 5
        assert values["y"] == 5

    def test_missing_input(self, graph):
        with pytest.raises(GraphError, match="missing values"):
            graph.evaluate({"a": 1})

    def test_const_operand(self):
        g = DataflowGraph("c")
        g.add_input("x")
        g.add_op("m", OpType.MUL, "x", ConstRef(10))
        assert g.evaluate({"x": 7})["m"] == 70


class TestCopyAndSummary:
    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add_op("extra", OpType.ADD, "m", "n")
        assert "extra" not in graph
        assert "extra" in clone

    def test_copy_rename(self, graph):
        assert graph.copy("other").name == "other"

    def test_summary_mentions_counts(self, graph):
        text = graph.summary()
        assert "3 ops" in text
        assert "2 inputs" in text


class TestTransitiveHelpers:
    def test_transitive_dependency(self, graph):
        deps = transitive_dependency(graph)
        assert deps["m"] == frozenset()
        assert deps["o"] == {"m", "n"}


class TestOperandStr:
    def test_str_forms(self):
        assert str(InputRef("x")) == "x"
        assert str(ConstRef(3)) == "3"
        assert str(OpRef("m")) == "m"
