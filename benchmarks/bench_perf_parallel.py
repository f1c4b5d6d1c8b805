"""Benchmarks for the parallel execution engine (:mod:`repro.perf`).

Times the Monte-Carlo latency sweep serial vs. through the process pool.
On multi-core machines the parallel rows should beat serial roughly
linearly in worker count; on a single core they document the pool's
overhead instead.  Either way the statistics are asserted
byte-identical — the engine's contract.
"""

from repro.api import synthesize
from repro.benchmarks import ar_lattice
from repro.sim.runner import monte_carlo_latency

TRIALS = 200


def _design():
    return synthesize(ar_lattice(), "mul:4T,add:2")


def test_monte_carlo_serial(benchmark):
    result = _design()
    system = result.distributed_system()
    stats = benchmark(
        monte_carlo_latency, system, result.bound,
        p=0.7, trials=TRIALS, seed=0, workers=1,
    )
    assert stats.trials == TRIALS


def test_monte_carlo_parallel_4_workers(benchmark):
    result = _design()
    system = result.distributed_system()
    serial = monte_carlo_latency(
        system, result.bound, p=0.7, trials=TRIALS, seed=0, workers=1
    )
    stats = benchmark(
        monte_carlo_latency, system, result.bound,
        p=0.7, trials=TRIALS, seed=0, workers=4,
    )
    assert stats == serial

