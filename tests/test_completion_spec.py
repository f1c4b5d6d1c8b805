"""Unit tests for completion-model specs (parse/encode/keys/models)."""

import random

import pytest

from repro.errors import ExactAnalysisError, SimulationError
from repro.core.ops import ResourceClass
from repro.resources.completion import (
    BernoulliCompletion,
    MarkovCompletion,
    PerUnitCompletion,
    markov_transition_probabilities,
    resolve_unit_probability,
)
from repro.resources.spec import (
    BernoulliSpec,
    MarkovSpec,
    PerUnitSpec,
    as_completion_spec,
    parse_completion_spec,
)
from repro.resources.units import TelescopicUnit

TM1 = TelescopicUnit("TM1", ResourceClass.MULTIPLIER)
TA1 = TelescopicUnit("TA1", ResourceClass.ADDER)

ALL_SPECS = [
    BernoulliSpec(0.7),
    PerUnitSpec({"mul": 0.9, "*": 0.5}),
    PerUnitSpec({"TM1": 0.95, "mul": 0.9, "*": 0.5}),
    MarkovSpec(p_fast=0.7, stickiness=0.5),
]


# ----------------------------------------------------------------------
# Parsing and canonical encodings
# ----------------------------------------------------------------------
def test_parse_bare_float():
    spec = parse_completion_spec("0.7")
    assert spec == BernoulliSpec(0.7)


def test_parse_bernoulli_prefix():
    assert parse_completion_spec("bernoulli:0.25") == BernoulliSpec(0.25)


def test_parse_per_unit_both_spellings():
    expected = PerUnitSpec({"mul": 0.9, "*": 0.5})
    assert parse_completion_spec("per-unit:mul=0.9,*=0.5") == expected
    assert parse_completion_spec("per_unit:mul=0.9,*=0.5") == expected


def test_parse_markov():
    spec = parse_completion_spec("markov:0.7,0.5")
    assert spec == MarkovSpec(p_fast=0.7, stickiness=0.5)


@pytest.mark.parametrize(
    "text",
    ["", "bogus:1", "per-unit:", "per-unit:mul", "markov:0.7", "markov:x,y"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SimulationError):
        parse_completion_spec(text)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_encode_parse_round_trip(spec):
    assert parse_completion_spec(spec.encode()) == spec


def test_per_unit_encoding_is_canonical():
    a = PerUnitSpec({"mul": 0.9, "*": 0.5})
    b = PerUnitSpec({"*": 0.5, "mul": 0.9})
    assert a == b
    assert a.encode() == b.encode() == "per-unit:*=0.5,mul=0.9"


def test_as_completion_spec_coercions():
    spec = BernoulliSpec(0.7)
    assert as_completion_spec(spec) is spec
    assert as_completion_spec(0.7) == spec
    assert as_completion_spec("0.7") == spec
    assert as_completion_spec("markov:0.7,0.5") == MarkovSpec(0.7, 0.5)
    with pytest.raises(SimulationError):
        as_completion_spec(True)
    with pytest.raises(SimulationError):
        as_completion_spec(None)


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_probability_bounds_checked(bad):
    with pytest.raises(SimulationError):
        BernoulliSpec(bad)
    with pytest.raises(SimulationError):
        PerUnitSpec({"*": bad})


def test_markov_stickiness_bounds():
    with pytest.raises(SimulationError):
        MarkovSpec(p_fast=0.7, stickiness=1.0)
    with pytest.raises(SimulationError):
        MarkovSpec(p_fast=0.7, stickiness=-0.1)


# ----------------------------------------------------------------------
# Legacy key compatibility (cache keys must not rotate)
# ----------------------------------------------------------------------
def test_bernoulli_key_fragment_is_legacy_literal():
    assert BernoulliSpec(0.7).key_fragment() == "p=0.7"
    assert BernoulliSpec(0.25).key_fragment() == "p=0.25"


def test_non_bernoulli_key_fragments_are_namespaced():
    assert (
        PerUnitSpec({"mul": 0.9}).key_fragment()
        == "completion=per-unit:mul=0.9"
    )
    assert (
        MarkovSpec(0.7, 0.5).key_fragment() == "completion=markov:0.7,0.5"
    )


def test_monte_carlo_run_key_matches_legacy_format(fig2_result):
    from repro.perf.cache import design_fingerprint, system_fingerprint
    from repro.sim.runner import _monte_carlo_run_key

    system = fig2_result.distributed_system()
    bound = fig2_result.bound
    key = _monte_carlo_run_key(system, bound, BernoulliSpec(0.7), 40, 3)
    legacy = (
        f"monte-carlo|{design_fingerprint(bound)}"
        f"|{system_fingerprint(system)}|p=0.7|trials=40|seed=3"
    )
    assert key == legacy


# ----------------------------------------------------------------------
# Model semantics
# ----------------------------------------------------------------------
def test_spec_model_types():
    assert isinstance(BernoulliSpec(0.7).model(), BernoulliCompletion)
    assert isinstance(
        PerUnitSpec({"*": 0.5}).model(), PerUnitCompletion
    )
    assert isinstance(MarkovSpec(0.7, 0.5).model(), MarkovCompletion)


def test_resolve_unit_probability_precedence():
    table = {"TM1": 0.95, "mul": 0.9, "*": 0.5}
    assert resolve_unit_probability(table, TM1) == 0.95
    assert resolve_unit_probability({"mul": 0.9, "*": 0.5}, TM1) == 0.9
    assert resolve_unit_probability({"*": 0.5}, TM1) == 0.5
    with pytest.raises(SimulationError):
        resolve_unit_probability({"add": 0.4}, TM1)


def test_probability_for_uses_unit_lookup():
    spec = PerUnitSpec({"mul": 0.9, "*": 0.5})
    assert spec.probability_for(TM1) == 0.9
    assert spec.probability_for(TA1) == 0.5
    assert BernoulliSpec(0.7).probability_for(TM1) == 0.7


def test_markov_probability_for_raises_correlated():
    with pytest.raises(ExactAnalysisError) as excinfo:
        MarkovSpec(0.7, 0.5).probability_for(TM1)
    assert excinfo.value.context()["reason"] == "correlated"


def test_markov_transition_probabilities_stationary():
    for p_fast, stickiness in [(0.7, 0.5), (0.3, 0.0), (0.9, 0.99)]:
        after_fast, after_slow = markov_transition_probabilities(
            p_fast, stickiness
        )
        assert 0.0 <= after_slow <= after_fast <= 1.0
        # stationary fast share is exactly p_fast
        stationary = after_slow / (1.0 - after_fast + after_slow)
        assert stationary == pytest.approx(p_fast)


def test_markov_completion_is_sticky_and_resets():
    model = MarkovCompletion(p_fast=0.5, stickiness=0.9)
    rng = random.Random(7)
    draws = [model.sample_level("m1", TM1, (), rng) for _ in range(400)]
    # with stickiness 0.9 consecutive draws agree far more often than
    # the 50/50 independent baseline would
    agree = sum(a == b for a, b in zip(draws, draws[1:]))
    assert agree / (len(draws) - 1) > 0.8
    model.reset()
    assert not model._last


def test_markov_zero_stickiness_matches_bernoulli():
    markov = MarkovCompletion(p_fast=0.7, stickiness=0.0)
    bernoulli = BernoulliCompletion(0.7)
    a = [
        markov.sample_level("m1", TM1, (), random.Random(s))
        for s in range(50)
    ]
    b = [
        bernoulli.sample_level("m1", TM1, (), random.Random(s))
        for s in range(50)
    ]
    assert a == b
