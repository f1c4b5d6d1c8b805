"""Tests for stimulus generation."""

import random

from repro.benchmarks import fir3
from repro.sim.stimulus import input_streams, small_values, uniform_values


class TestValueDistributions:
    def test_uniform_range(self):
        rng = random.Random(0)
        dist = uniform_values(6)
        assert all(0 <= dist.sample(rng) < 64 for _ in range(200))

    def test_small_values_bounded(self):
        rng = random.Random(0)
        dist = small_values(8, 3)
        assert all(dist.sample(rng) < 8 for _ in range(200))

    def test_names(self):
        assert uniform_values(8).name == "uniform8"
        assert small_values(8, 3).name == "small3of8"


class TestStreams:
    def test_covers_all_inputs(self):
        dfg = fir3()
        streams = input_streams(dfg, uniform_values(8), iterations=4)
        assert set(streams) == set(dfg.inputs)
        assert all(len(v) == 4 for v in streams.values())

    def test_seeded_reproducibility(self):
        dfg = fir3()
        a = input_streams(dfg, uniform_values(8), iterations=3, seed=5)
        b = input_streams(dfg, uniform_values(8), iterations=3, seed=5)
        assert a == b

    def test_streams_drive_simulation(self, fig3_result):
        from repro.resources import BernoulliCompletion
        from repro.sim import simulate

        streams = input_streams(
            fig3_result.dfg, small_values(8, 4), iterations=2, seed=1
        )
        sim = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            BernoulliCompletion(0.8),
            iterations=2,
            inputs=streams,
        )
        assert len(sim.iteration_finish_cycles) == 2
