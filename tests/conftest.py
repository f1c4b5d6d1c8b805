"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.api import SynthesisResult, synthesize
from repro.benchmarks import (
    differential_equation,
    paper_fig2_dfg,
    paper_fig3_dfg,
)
from repro.core.builder import DFGBuilder
from repro.core.dfg import DataflowGraph
from repro.core.ops import OpType
from repro.errors import LogicError
from repro.logic.terms import Cube


# ----------------------------------------------------------------------
# Cached synthesis results (session scope: artifacts are immutable).
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def fig2_result() -> SynthesisResult:
    return synthesize(paper_fig2_dfg(), "mul:2T,add:1")


@pytest.fixture(scope="session")
def fig3_result() -> SynthesisResult:
    return synthesize(paper_fig3_dfg(), "mul:2T,add:2")


@pytest.fixture(scope="session")
def diffeq_result() -> SynthesisResult:
    return synthesize(differential_equation(), "mul:2T,add:1,sub:1")


@pytest.fixture()
def minimized(monkeypatch) -> list:
    """Every ``(function, cover)`` that ``repro.logic.area`` minimizes
    while the test runs, in call order."""
    import repro.logic.area as logic_area

    calls = []
    real = logic_area.minimize

    def recording(function):
        cover = real(function)
        calls.append((function, cover))
        return cover

    monkeypatch.setattr(logic_area, "minimize", recording)
    return calls


@pytest.fixture()
def simple_dfg() -> DataflowGraph:
    """y = (a*b) + (c*d): two concurrent mults feeding one add."""
    b = DFGBuilder("simple")
    a, bb, c, d = b.inputs("a", "b", "c", "d")
    p1 = b.mul("p1", a, bb)
    p2 = b.mul("p2", c, d)
    s = b.add("s", p1, p2)
    b.output("y", s)
    return b.build()


@pytest.fixture()
def chain_dfg() -> DataflowGraph:
    """Serial chain: mul -> add -> mul -> add (zero concurrency)."""
    b = DFGBuilder("chain")
    x = b.input("x")
    m1 = b.mul("m1", x, 3)
    a1 = b.add("a1", m1, 1)
    m2 = b.mul("m2", a1, 5)
    a2 = b.add("a2", m2, 2)
    b.output("y", a2)
    return b.build()


# ----------------------------------------------------------------------
# Hypothesis strategy: small random DFGs.
# ----------------------------------------------------------------------
def build_random_dfg(
    op_kinds: list[int], operand_picks: list[int]
) -> DataflowGraph:
    """Deterministically build a DFG from drawn integers.

    ``op_kinds[i]`` selects the i-th operation's type; ``operand_picks``
    supplies indices used (mod the number of available sources) to pick
    each operand from {inputs, earlier ops}.
    """
    kinds = (OpType.MUL, OpType.ADD, OpType.SUB)
    b = DFGBuilder("random")
    num_inputs = 3
    sources: list = [b.input(f"in{i}") for i in range(num_inputs)]
    picks = iter(operand_picks)
    for i, kind_index in enumerate(op_kinds):
        op_type = kinds[kind_index % len(kinds)]
        operands = [
            sources[next(picks) % len(sources)]
            for _ in range(op_type.arity)
        ]
        sources.append(b.op(f"op{i}", op_type, *operands))
    # Make the last op an output so the graph has a declared interface.
    b.output("y", f"op{len(op_kinds) - 1}")
    return b.build()


random_dfgs = st.builds(
    build_random_dfg,
    st.lists(st.integers(0, 2), min_size=3, max_size=10),
    st.lists(st.integers(0, 1000), min_size=20, max_size=20),
)


# ----------------------------------------------------------------------
# Cubes written as text (the logic tests).
# ----------------------------------------------------------------------
def cube(text: str) -> Cube:
    """Parse ``"1-0"`` style cube text (index 0 = leftmost character)."""
    care = 0
    value = 0
    for i, ch in enumerate(text):
        if ch == "-":
            continue
        if ch not in "01":
            raise LogicError(f"bad cube character {ch!r} in {text!r}")
        care |= 1 << i
        if ch == "1":
            value |= 1 << i
    return Cube(width=len(text), care=care, value=value)
