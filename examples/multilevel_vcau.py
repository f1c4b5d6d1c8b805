#!/usr/bin/env python3
"""Extension example: multi-level variable-computation-time units.

The paper's §6 claims the method applies "to other kinds of synchronous
VCAUs without special modification".  This script demonstrates it: three-
level telescopic multipliers (15/30/45 ns — one, two or three clock cycles
per multiply) drive the same flow.  Algorithm 1 chains extension states
(S, S', S''), the synchronized baseline keeps extending a step until every
unit reports done, and the distributed advantage persists.

Run:  python examples/multilevel_vcau.py
"""

from repro import synthesize
from repro.analysis import (
    DistLatencyEvaluator,
    analyze_dist,
    analyze_sync,
    duration_table,
    render_table,
)
from repro.benchmarks import fir5
from repro.core.ops import ResourceClass
from repro.resources import CategoricalCompletion, ResourceAllocation
from repro.sim import simulate


def main() -> None:
    allocation = ResourceAllocation.build(
        {ResourceClass.MULTIPLIER: 2, ResourceClass.ADDER: 1},
        level_delays_ns=(15.0, 30.0, 45.0),
        fixed_delay_ns=15.0,
    )
    print(allocation.describe())

    result = synthesize(fir5(), allocation)
    fsm = result.distributed.controller("TM1")
    chain = [s for s in fsm.states if s.startswith(("S_m0", "SX"))]
    print(f"\nAlgorithm-1 extension chain for TM1: {chain[:6]} ...")

    # Exact expected latency for several level distributions.
    rows = []
    for probs in ((0.8, 0.15, 0.05), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)):
        table = duration_table(result.bound, probs)
        evaluator = DistLatencyEvaluator(result.bound)
        dist = analyze_dist(evaluator, table).expectation
        sync = analyze_sync(result.taubm, table).expectation
        rows.append(
            [
                str(list(probs)),
                f"{dist:.3f}",
                f"{sync:.3f}",
                f"{100 * (sync - dist) / sync:.1f}%",
            ]
        )
    print()
    print(
        render_table(
            ["level probabilities", "DIST", "CENT-SYNC", "enhancement"],
            rows,
        )
    )

    # Cycle-accurate run with categorical level sampling + datapath check.
    sim = simulate(
        result.distributed_system(),
        result.bound,
        CategoricalCompletion((0.5, 0.3, 0.2)),
        seed=11,
        inputs={f"x{i}": i + 1 for i in range(5)},
        record_trace=True,
    )
    print(
        f"\none sampled run: {sim.cycles} cycles; per-op levels: "
        + ", ".join(
            f"{op}:{sim.level_outcomes[op][0]}"
            for op in result.bound.telescopic_ops()
        )
    )
    print(f"filter output y = {sim.datapath.output_values()['y']} (verified)")


if __name__ == "__main__":
    main()
