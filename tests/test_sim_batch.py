"""Byte-identity of the vectorized batch Monte-Carlo engine.

The batch engine replays the scalar trial loop in lockstep across all
trials at once; its contract is *byte-identical statistics* — same
per-trial seeds, same draw order, same samples — not statistical
agreement.  Every test here therefore compares ``==``, never approx.
"""

import random
from collections import OrderedDict

import pytest

import repro.sim.batch as batch
from repro.errors import SimulationError
from repro.perf.engine import derive_seed
from repro.sim.batch import (
    BatchSimulator,
    BatchUnsupported,
    batch_monte_carlo_latency,
    batch_supported,
    mt_streams,
    numpy_available,
    shared_engine,
    trial_streams,
)
from repro.sim.runner import monte_carlo_latency

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="batch engine requires numpy"
)

STYLES = ("dist", "cent-sync", "cent")

#: a generated design with more than eight units, so its completion
#: flags span more than one byte
MANY_UNITS = "gen:ops=16,depth=3,fanout=1,mix=1-2-2,pressure=2,seed=290"

#: generated designs whose dense transition index outgrows the bound:
#: 32 units cannot hold one config, 21 units run out while interning
OVERSIZED = (
    "gen:ops=63,depth=8,fanout=2,mix=1-1-1,pressure=2,seed=1",
    "gen:ops=40,depth=6,fanout=2,mix=1-1-1,pressure=2,seed=1",
)


@pytest.fixture(scope="module")
def many_units_result():
    from repro.benchmarks.registry import benchmark
    from repro.experiments.common import synthesize_entry

    return synthesize_entry(benchmark(MANY_UNITS))


class TestMtStreams:
    def test_matches_cpython_random(self):
        """Vectorized MT19937 == random.Random, stream for stream."""
        from repro.sim.batch import mt_streams

        seeds = [derive_seed(7, trial) for trial in range(40)]
        draws = 25
        matrix = mt_streams(seeds, draws)
        for row, seed in enumerate(seeds):
            rng = random.Random(seed)
            expected = [rng.random() for _ in range(draws)]
            assert matrix[row].tolist() == expected

    def test_chunked_generation_identical(self):
        from repro.sim.batch import mt_streams

        seeds = [derive_seed(3, t) for t in range(10)]
        assert (
            mt_streams(seeds, 12, chunk=3).tolist()
            == mt_streams(seeds, 12).tolist()
        )


class TestByteIdentity:
    @pytest.mark.parametrize(
        "design, style",
        [
            *(pytest.param("fig3_result", s, id=s) for s in STYLES),
            *(
                pytest.param("many_units_result", s, id=f"many-units-{s}")
                for s in ("dist", "cent-sync")
            ),
        ],
    )
    def test_statistics_identical_to_scalar(self, request, design, style):
        result = request.getfixturevalue(design)
        system = result.system(style)
        scalar = monte_carlo_latency(
            system, result.bound, 0.7, trials=60, seed=5, engine="scalar"
        )
        batched = batch_monte_carlo_latency(
            system, result.bound, 0.7, trials=60, seed=5
        )
        assert batched == scalar

    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_identical_across_p(self, diffeq_result, p):
        system = diffeq_result.distributed_system()
        scalar = monte_carlo_latency(
            system, diffeq_result.bound, p, trials=40, seed=9,
            engine="scalar",
        )
        batched = batch_monte_carlo_latency(
            system, diffeq_result.bound, p, trials=40, seed=9
        )
        assert batched == scalar

    def test_auto_engine_dispatches_to_batch(self, fig3_result):
        """engine='auto' returns the same bytes and records the event."""
        from repro.runtime.policy import RunReport

        system = fig3_result.distributed_system()
        report = RunReport()
        auto = monte_carlo_latency(
            system, fig3_result.bound, 0.7, trials=30, seed=2,
            report=report,
        )
        scalar = monte_carlo_latency(
            system, fig3_result.bound, 0.7, trials=30, seed=2,
            engine="scalar",
        )
        assert auto == scalar
        assert report.count("batch-engine") == 1


class TestEngineReuse:
    def test_memo_persists_across_runs(self, fig3_result):
        engine = BatchSimulator(
            fig3_result.distributed_system(), fig3_result.bound
        )
        first = engine.statistics(0.7, 30, 1)
        size_after_first = engine.memo_size
        second = engine.statistics(0.7, 30, 1)
        assert first == second
        assert engine.memo_size == size_after_first

    def test_shared_engine_cached_per_system(self, fig3_result):
        system = fig3_result.distributed_system()
        a = shared_engine(system, fig3_result.bound)
        b = shared_engine(system, fig3_result.bound)
        assert a is b

    def test_shared_engine_dies_with_its_system(self, fig3_result):
        import gc
        import weakref

        system = fig3_result.distributed_system()
        engine = weakref.ref(shared_engine(system, fig3_result.bound))
        del system
        gc.collect()
        assert engine() is None


@pytest.fixture()
def streams(monkeypatch):
    """An empty stream table for the test, so no earlier block is reused."""
    table = OrderedDict()
    monkeypatch.setattr(batch, "_STREAMS", table)
    return table


class TestTrialStreams:
    def test_blocks_are_read_only(self, streams):
        block = trial_streams(4, 30, 6)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.5

    def test_wider_block_keeps_the_leading_columns(self, streams):
        seeds = [derive_seed(4, t) for t in range(30)]
        narrow = trial_streams(4, 30, 6)
        wide = trial_streams(4, 30, 40)
        assert wide.shape == (30, 40)
        assert streams[(4, 30)][1] is wide
        assert wide[:, :6].tolist() == narrow.tolist()
        assert wide[:, :6].tolist() == mt_streams(seeds, 6).tolist()
        assert wide.tolist() == mt_streams(seeds, 40).tolist()
        # a narrower request is served by the wider block
        assert trial_streams(4, 30, 10) is wide

    def test_designs_share_one_block(
        self, streams, monkeypatch, fig3_result, diffeq_result
    ):
        used = []
        run = BatchSimulator._run

        def spy(engine, u, spec):
            used.append(u)
            return run(engine, u, spec)

        engines = [
            BatchSimulator(result.distributed_system(), result.bound)
            for result in (fig3_result, diffeq_result)
        ]
        for engine in engines:  # the wider design widens the block
            engine.latencies("markov:0.7,0.5", 50, 8)
        monkeypatch.setattr(BatchSimulator, "_run", spy)
        for engine in engines:
            engine.latencies("markov:0.7,0.5", 50, 8)
        assert len(used) == 2 and used[0] is used[1]
        assert used[0] is streams[(8, 50)][1]

    def test_table_stays_within_its_bound(self, streams, monkeypatch):
        keys = [(seed, 20) for seed in range(batch._STREAM_KEYS + 2)]
        for seed, trials in keys:
            trial_streams(seed, trials, 8)
        assert list(streams) == keys[-batch._STREAM_KEYS :]
        # a byte budget smaller than two blocks keeps only the newest
        one_block = streams[keys[-1]][1].nbytes
        monkeypatch.setattr(batch, "_STREAM_BYTES", 2 * one_block - 1)
        trial_streams(99, 20, 8)
        assert list(streams) == [(99, 20)]
        # a block over the budget is returned but not kept
        block = trial_streams(100, 20, 16)
        assert block.shape == (20, 16)
        assert not streams

    def test_draw_overflow_widens_the_block(self, streams, fig3_result):
        """A one-draw start overflows, widens and still matches scalar."""
        system = fig3_result.distributed_system()
        engine = BatchSimulator(system, fig3_result.bound)
        engine.initial_draws = 1
        spec = "markov:0.7,0.5"
        batched = engine.statistics(spec, 60, 5)
        assert streams[(5, 60)][1].shape[1] > 1
        scalar = monte_carlo_latency(
            system, fig3_result.bound, spec, trials=60, seed=5,
            engine="scalar",
        )
        assert batched == scalar


class TestGating:
    def test_batch_supported(self, fig3_result):
        assert batch_supported(
            fig3_result.distributed_system(), fig3_result.bound
        )

    def test_invalid_engine_rejected(self, fig3_result):
        with pytest.raises(SimulationError, match="engine must be"):
            monte_carlo_latency(
                fig3_result.distributed_system(),
                fig3_result.bound,
                0.7,
                trials=5,
                engine="turbo",
            )

    def test_batch_incompatible_with_supervision(self, fig3_result, tmp_path):
        with pytest.raises(SimulationError, match="incompatible"):
            monte_carlo_latency(
                fig3_result.distributed_system(),
                fig3_result.bound,
                0.7,
                trials=5,
                engine="batch",
                checkpoint=str(tmp_path / "ck"),
            )

    def test_supervised_auto_stays_scalar(self, fig3_result, tmp_path):
        """Checkpointed runs keep the journaled scalar path — and stay
        byte-identical to the unsupervised batch run."""
        system = fig3_result.distributed_system()
        checkpointed = monte_carlo_latency(
            system, fig3_result.bound, 0.7, trials=20, seed=4,
            checkpoint=str(tmp_path / "ck"),
        )
        batched = monte_carlo_latency(
            system, fig3_result.bound, 0.7, trials=20, seed=4
        )
        assert checkpointed == batched


class TestIndexBound:
    @pytest.fixture(scope="class", params=OVERSIZED)
    def oversized(self, request):
        from repro.benchmarks.registry import benchmark
        from repro.experiments.common import synthesize_entry

        return synthesize_entry(benchmark(request.param))

    @pytest.mark.parametrize("style", ["dist", "cent-sync"])
    def test_auto_falls_back_to_scalar(self, oversized, style):
        auto = oversized.monte_carlo_latency(
            0.7, trials=200, seed=1, style=style
        )
        scalar = oversized.monte_carlo_latency(
            0.7, trials=200, seed=1, style=style, engine="scalar"
        )
        assert auto == scalar

    @pytest.mark.parametrize("style", ["dist", "cent-sync"])
    def test_batch_refuses(self, oversized, style):
        with pytest.raises(BatchUnsupported, match=r"\d+ units need a"):
            oversized.monte_carlo_latency(
                0.7, trials=200, seed=1, style=style, engine="batch"
            )

    def test_refused_engine_memo_fits_its_index(self, oversized):
        try:
            engine = BatchSimulator(
                oversized.distributed_system(), oversized.bound
            )
        except BatchUnsupported:
            return  # refused before the initial config was interned
        with pytest.raises(BatchUnsupported):
            engine.latencies(0.7, 200, seed=1)
        assert engine._rowtab.nbytes <= batch._ROWTAB_BYTES
        assert len(engine._configs) << engine.U <= engine._rowtab.size
