"""The exact engines over one duration table against enumeration.

Both schemes read a :func:`~repro.analysis.latency.duration_table`.
These tests pin the table path where the binary fast/slow view is not
enough: multi-level VCAUs (one row per telescope level, levels that
quantize to one cycle count merged) and two-level TAUs whose slow level
spans more than two cycles, where a CENT-SYNC step lasts as long as its
slowest operation.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.distribution import compare_distributions
from repro.analysis.exact_engine import analyze_dist, analyze_sync
from repro.analysis.latency import DistLatencyEvaluator, duration_table
from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.core.ops import ResourceClass
from repro.resources import LevelAssignmentCompletion, ResourceAllocation
from repro.sim import simulate

from conftest import random_dfgs

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: three-level delays (ns); the clock is the first level, so the cycle
#: counts are (1, 2, 3), (1, 2, 2) with two levels merged, and (1, 3, 5)
LEVEL_DELAYS = [(15.0, 30.0, 45.0), (15.0, 20.0, 30.0), (10.0, 25.0, 45.0)]

level_probabilities = st.sampled_from(
    [(0.6, 0.3, 0.1), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (1.0, 0.0, 0.0),
     (0.0, 0.0, 1.0), (0.25, 0.0, 0.75)]
)


def _enumerated_pmf(latency_of, table):
    """Cross-product enumeration of every op's duration rows."""
    ops = sorted(table)
    mass: dict[int, float] = {}
    for choice in itertools.product(*(table[op] for op in ops)):
        weight = math.prod(prob for _, prob in choice)
        if weight == 0.0:
            continue
        cycles = latency_of({op: c for op, (c, _) in zip(ops, choice)})
        mass[cycles] = mass.get(cycles, 0.0) + weight
    return mass


def _assert_pmf_equal(pmf, expected):
    got = dict(pmf)
    assert set(got) == set(expected)
    for cycles, prob in expected.items():
        assert abs(got[cycles] - prob) <= 1e-12


def _assert_engines_match_enumeration(result, table):
    evaluator = DistLatencyEvaluator(result.bound)
    _assert_pmf_equal(
        analyze_dist(evaluator, table).distribution.pmf,
        _enumerated_pmf(evaluator.for_durations, table),
    )
    _assert_pmf_equal(
        analyze_sync(result.taubm, table).distribution.pmf,
        _enumerated_pmf(result.taubm.cycles_for_durations, table),
    )


@pytest.mark.parametrize("delays", LEVEL_DELAYS)
@SETTINGS
@given(random_dfgs, st.integers(1, 2), level_probabilities)
def test_engines_match_enumeration_on_levels(delays, dfg, mults, probs):
    allocation = ResourceAllocation.build(
        {
            ResourceClass.MULTIPLIER: mults,
            ResourceClass.ADDER: 1,
            ResourceClass.SUBTRACTOR: 1,
        },
        level_delays_ns=delays,
        fixed_delay_ns=delays[0],
    )
    result = synthesize(dfg, allocation)
    table = duration_table(result.bound, probs)
    assume(len(table) <= 7)  # 3**7 assignments keep the oracle quick
    _assert_engines_match_enumeration(result, table)


@pytest.mark.parametrize("delays", LEVEL_DELAYS)
@pytest.mark.parametrize("name", ["fir5", "diffeq"])
def test_engines_match_enumeration_on_core_designs(name, delays):
    """Designs whose steps hold several multiplies (a max of levels)."""
    entry = benchmark(name)
    dfg = entry.dfg()
    allocation = ResourceAllocation.build(
        {rc: entry.allocation().count(rc) for rc in dfg.resource_classes()},
        level_delays_ns=delays,
        fixed_delay_ns=delays[0],
    )
    result = synthesize(dfg, allocation)
    assert max(len(step.tau_ops) for step in result.taubm.steps) >= 2
    table = duration_table(result.bound, (0.5, 0.3, 0.2))
    _assert_engines_match_enumeration(result, table)


@pytest.fixture(scope="module")
def four_cycle_diffeq():
    """diffeq at SD=10 ns, LD=35 ns: a slow multiply takes 4 cycles."""
    entry = benchmark("diffeq")
    allocation = ResourceAllocation.parse(
        entry.allocation_spec,
        short_delay_ns=10,
        long_delay_ns=35,
        fixed_delay_ns=10,
    )
    return synthesize(entry.dfg(), allocation)


def _simulated_cent_sync_pmf(result, p):
    """The emitted CENT-SYNC FSM over all 2**k fast/slow assignments."""
    system = result.cent_sync_system()
    tau_ops = result.bound.telescopic_ops()
    mass: dict[int, float] = {}
    for levels in itertools.product((0, 1), repeat=len(tau_ops)):
        weight = math.prod(p if level == 0 else 1.0 - p for level in levels)
        if weight == 0.0:
            continue
        cycles = simulate(
            system,
            result.bound,
            LevelAssignmentCompletion(dict(zip(tau_ops, levels))),
        ).cycles
        mass[cycles] = mass.get(cycles, 0.0) + weight
    return mass


@pytest.mark.parametrize("p", [0.0, 0.5, 0.7, 1.0])
def test_cent_sync_takes_the_slow_levels_cycles(four_cycle_diffeq, p):
    result = four_cycle_diffeq
    tau_ops = result.bound.telescopic_ops()
    assert len(tau_ops) == 6
    assert {result.bound.duration_cycles(op, False) for op in tau_ops} == {4}
    simulated = _simulated_cent_sync_pmf(result, p)
    _assert_pmf_equal(
        result.exact_latency_analysis(p, "cent-sync").distribution.pmf,
        simulated,
    )
    _assert_pmf_equal(
        compare_distributions(result.bound, result.taubm, p=p).sync.pmf,
        simulated,
    )
    sync = result.latency_comparison(ps=(p,)).sync
    assert sync.expected_cycles[p] == pytest.approx(
        sum(c * w for c, w in simulated.items()), abs=1e-12
    )
    assert sync.best_cycles == min(_simulated_cent_sync_pmf(result, 1.0))
    assert sync.worst_cycles == max(_simulated_cent_sync_pmf(result, 0.0))
