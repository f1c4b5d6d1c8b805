"""Property tests: the spec contract holds across every engine.

Pins the two load-bearing equivalences of the completion-spec refactor:

* the vectorized batch engine reproduces the scalar simulator's
  statistics **byte-identically** under heterogeneous (``per-unit``)
  and temporally correlated (``markov``) completion models, for every
  controller style — exactly as it always did for Bernoulli;
* the exact analytical engine's PMF equals brute-force ``2**k``
  enumeration under heterogeneous per-unit probabilities, for both the
  distributed scheme and the synchronized baseline.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.exact_engine import analyze_dist, analyze_sync
from repro.analysis.latency import (
    DistLatencyEvaluator,
    SyncLatencyEvaluator,
    duration_table,
    enumerate_assignments,
)
from repro.resources.spec import MarkovSpec, PerUnitSpec
from repro.sim.runner import monte_carlo_latency

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STYLES = ("dist", "cent-sync", "cent")

# probabilities drawn on a coarse grid: the equivalences are exact, so
# densely sampled floats only slow the suite down without adding power
probs = st.integers(0, 10).map(lambda n: n / 10)
stickiness = st.integers(0, 9).map(lambda n: n / 10)


def _assert_batch_matches_scalar(result, spec, seed):
    for style in STYLES:
        system = result.system(style)
        scalar = monte_carlo_latency(
            system,
            result.bound,
            p=spec,
            trials=50,
            seed=seed,
            engine="scalar",
        )
        batch = monte_carlo_latency(
            system,
            result.bound,
            p=spec,
            trials=50,
            seed=seed,
            engine="batch",
        )
        assert batch == scalar, f"{style} diverged under {spec.encode()}"


@SETTINGS
@given(probs, probs, st.integers(0, 1000))
def test_batch_matches_scalar_per_unit(fig3_result, p_mul, p_rest, seed):
    spec = PerUnitSpec({"mul": p_mul, "*": p_rest})
    _assert_batch_matches_scalar(fig3_result, spec, seed)


@SETTINGS
@given(probs, stickiness, st.integers(0, 1000))
def test_batch_matches_scalar_markov(fig3_result, p_fast, stick, seed):
    spec = MarkovSpec(p_fast=p_fast, stickiness=stick)
    _assert_batch_matches_scalar(fig3_result, spec, seed)


# ----------------------------------------------------------------------
# Exact engine vs brute-force enumeration under per-unit p
# ----------------------------------------------------------------------
def _enumerated_pmf(latency_fn, tau_ops, p_by_op):
    mass = {}
    for values in enumerate_assignments(tau_ops):
        fast = dict(zip(tau_ops, values))
        weight = 1.0
        for op, is_fast in fast.items():
            weight *= p_by_op[op] if is_fast else 1.0 - p_by_op[op]
        if weight == 0.0:
            continue
        cycles = latency_fn(fast)
        mass[cycles] = mass.get(cycles, 0.0) + weight
    return dict(sorted(mass.items()))


@SETTINGS
@given(probs, probs)
def test_exact_dist_matches_enumeration_per_unit(
    fig2_result, p_mul, p_rest
):
    bound = fig2_result.bound
    tau_ops = bound.telescopic_ops()
    spec = PerUnitSpec({"mul": p_mul, "*": p_rest})
    p_by_op = spec.op_probabilities(bound, tau_ops)
    evaluator = DistLatencyEvaluator(bound)
    analysis = analyze_dist(evaluator, duration_table(bound, spec))
    expected = _enumerated_pmf(evaluator, tau_ops, p_by_op)
    got = {c: p for c, p in analysis.distribution.pmf}
    assert set(got) == set(expected)
    for cycles in expected:
        assert abs(got[cycles] - expected[cycles]) < 1e-12


@SETTINGS
@given(probs, probs)
def test_exact_sync_matches_enumeration_per_unit(
    fig2_result, p_mul, p_rest
):
    bound = fig2_result.bound
    tau_ops = bound.telescopic_ops()
    spec = PerUnitSpec({"mul": p_mul, "*": p_rest})
    p_by_op = spec.op_probabilities(bound, tau_ops)
    evaluator = SyncLatencyEvaluator(fig2_result.taubm)
    analysis = analyze_sync(fig2_result.taubm, duration_table(bound, spec))
    expected = _enumerated_pmf(evaluator, tau_ops, p_by_op)
    got = {c: p for c, p in analysis.distribution.pmf}
    assert set(got) == set(expected)
    for cycles in expected:
        assert abs(got[cycles] - expected[cycles]) < 1e-12
