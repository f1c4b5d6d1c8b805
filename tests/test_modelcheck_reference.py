"""The packed model checker against the reference explorer.

``repro.verify.modelcheck`` explores states of packed words through the
stepping kernel; ``tests/reference_modelcheck.py`` keeps the explorer
it replaced, whose states are ``MCState`` objects stepped through
``ControllerSystem.step``.  Every test here holds every
:class:`ModelCheckResult` field and every counterexample to the
reference, on the clean design and under every mutator of the golden
file, including the errors both budgets raise.  Designs run under their
own allocation and under three-level telescopic units, whose countdowns
span more than one cycle.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.errors import ModelCheckBudgetExceeded, ReproError
from repro.resources.allocation import ResourceAllocation
from repro.verify import LintTarget
from repro.verify.modelcheck import ModelCheckResult, check_target

from reference_modelcheck import reference_check
from test_golden_modelcheck import VARIANTS
from test_sim_batch import MANY_UNITS
from test_sim_kernel import generated_names

#: telescope level delays: the design's own, or three levels spanning
#: one, two and three cycles
LEVELS = (None, (15.0, 30.0, 45.0))

#: the state budget of every comparison, which keeps one to seconds
MAX_STATES = 10_000


def target_of(name, levels):
    """A registered design, its telescopic units at ``levels``."""
    entry = benchmark(name)
    allocation = (
        entry.allocation()
        if levels is None
        else ResourceAllocation.parse(
            entry.allocation_spec, level_delays_ns=levels, fixed_delay_ns=15.0
        )
    )
    result = synthesize(entry.factory(), allocation)
    return LintTarget.from_result(result, name=name)


def outcome(check, target, **budgets):
    """The result, or the budget error's message and context."""
    try:
        return check(target, **budgets)
    except ModelCheckBudgetExceeded as exc:
        return str(exc), exc.context()


def assert_same(got, expected):
    if isinstance(expected, ModelCheckResult):
        assert isinstance(got, ModelCheckResult), got
        for field in dataclasses.fields(ModelCheckResult):
            assert getattr(got, field.name) == getattr(
                expected, field.name
            ), field.name
        assert got.render() == expected.render()
    else:
        assert got == expected


def check_against_reference(target):
    """Every variant of one design, then both budgets on the clean one.

    Every check runs under ``MAX_STATES``: a drawn design too large for
    it is compared on the budget error both explorers raise.
    """
    for _, mutate in VARIANTS:
        try:
            variant = target if mutate is None else mutate(target)
        except (AssertionError, ReproError):
            continue
        expected = outcome(reference_check, variant, max_states=MAX_STATES)
        assert_same(
            outcome(check_target, variant, max_states=MAX_STATES), expected
        )
        if mutate is None:
            states = getattr(expected, "states", MAX_STATES)
    for budgets in (
        {"max_states": max(states // 2, 1)},
        {"max_states": MAX_STATES, "max_frontier": max(states // 8, 1)},
    ):
        assert_same(
            outcome(check_target, target, **budgets),
            outcome(reference_check, target, **budgets),
        )


@pytest.mark.parametrize("name", [MANY_UNITS, "fir5"])
@pytest.mark.parametrize("levels", LEVELS)
def test_design_matches_reference(name, levels):
    check_against_reference(target_of(name, levels))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(generated_names, st.sampled_from(LEVELS))
def test_packed_explorer_matches_reference(name, levels):
    # the sizes the compile workload admits: <= 24 ops, <= 8 units
    assume(len(benchmark(name).allocation()) <= 8)
    check_against_reference(target_of(name, levels))
