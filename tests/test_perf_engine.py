"""Tests for the parallel execution engine (:mod:`repro.perf`)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SerialFallbackWarning, SimulationError
from repro.perf.bench import BenchReport, run_bench
from repro.perf.cache import (
    SimulationCache,
    design_fingerprint,
    model_fingerprint,
    simulate_cached,
    system_fingerprint,
)
from repro.perf.engine import (
    default_chunksize,
    derive_seed,
    parallel_map,
    resolve_workers,
)
from repro.resources.completion import BernoulliCompletion
from repro.sim.runner import monte_carlo_latency
from repro.sim.simulator import simulate

REPO_ROOT = Path(__file__).resolve().parents[1]

#: items a trial function ran in *this* process (pool workers append to
#: their own copy, so a parent-side entry means an in-process rerun)
IN_PROCESS_CALLS: list = []


class _Unpicklable:
    """Crosses no process boundary: pickling it raises ``TypeError``."""

    def __reduce__(self):
        raise TypeError("cannot pickle _Unpicklable")


def _fails_on_twelve(item):
    IN_PROCESS_CALLS.append(item)
    if item == 12:
        raise TypeError(f"trial {item} failed on its own")
    return item * item


def _unpicklable_result(item):
    return item, _Unpicklable()


def _describe(item):
    return item if isinstance(item, int) else "unpicklable"


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(0, t) for t in range(100)]
        assert seeds == [derive_seed(0, t) for t in range(100)]
        assert len(set(seeds)) == 100

    def test_no_arithmetic_structure(self):
        # Unlike seed + trial, the derivation must not collide when the
        # base seed shifts by the trial delta.
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_fits_in_63_bits(self):
        for t in range(50):
            assert 0 <= derive_seed(12345, t) < 2**63

    def test_stable_across_processes(self):
        """The same seeds come out regardless of PYTHONHASHSEED."""
        code = (
            "from repro.perf.engine import derive_seed;"
            "print([derive_seed(7, t) for t in range(5)])"
        )
        outputs = set()
        for hashseed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert outputs == {str([derive_seed(7, t) for t in range(5)])}


class TestResolveWorkers:
    def test_auto_detect(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_explicit_pass_through(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            resolve_workers(-1)


class TestChunksize:
    def test_four_chunks_per_worker(self):
        assert default_chunksize(400, 4) == 25

    def test_never_below_one(self):
        assert default_chunksize(2, 8) == 1


class TestParallelMap:
    def test_matches_serial_map(self):
        items = list(range(37))
        assert parallel_map(str, items, workers=3) == [str(i) for i in items]

    def test_order_preserved(self):
        out = parallel_map(str, [5, 1, 9, 1], workers=2)
        assert out == ["5", "1", "9", "1"]

    def test_empty_items(self):
        assert parallel_map(str, [], workers=4) == []

    def test_unpicklable_fn_falls_back_to_serial(self):
        with pytest.warns(SerialFallbackWarning, match="<lambda>"):
            out = parallel_map(lambda x: x + 1, [1, 2, 3], workers=2)
        assert out == [2, 3, 4]

    def test_fallback_warning_records_ambient_event(self):
        from repro.runtime import active_report

        with active_report() as report:
            with pytest.warns(SerialFallbackWarning):
                parallel_map(lambda x: x, [1, 2], workers=2)
        assert report.count("serial-fallback") == 1

    def test_deliberate_serial_never_warns(self, recwarn):
        assert parallel_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]
        assert parallel_map(str, [7], workers=4) == ["7"]  # single item
        assert not [
            w for w in recwarn if issubclass(
                w.category, SerialFallbackWarning
            )
        ]

    def test_serial_default(self):
        assert parallel_map(str, [1, 2]) == ["1", "2"]

    def test_trial_exception_propagates_as_itself(self, recwarn):
        """A trial's own TypeError is no pickling failure: no rerun."""
        from repro.runtime import active_report

        IN_PROCESS_CALLS.clear()
        with active_report() as report:
            with pytest.raises(TypeError, match="trial 12 failed"):
                parallel_map(
                    _fails_on_twelve, range(20), workers=2, amortize=False
                )
        assert IN_PROCESS_CALLS == []
        assert report.count("serial-fallback") == 0
        assert not [
            w for w in recwarn if issubclass(
                w.category, SerialFallbackWarning
            )
        ]

    def test_unpicklable_later_payload_falls_back_in_pool(self):
        """The first item pickles, a later one fails inside the pool."""
        from repro.runtime import active_report

        items = [1, 2, 3, _Unpicklable(), 5, 6]
        with active_report() as report:
            with pytest.warns(SerialFallbackWarning, match="_describe"):
                out = parallel_map(
                    _describe, items, workers=2, amortize=False
                )
        assert out == [1, 2, 3, "unpicklable", 5, 6]
        assert report.count("serial-fallback") == 1

    def test_unpicklable_result_falls_back_in_pool(self):
        from repro.runtime import active_report

        with active_report() as report:
            with pytest.warns(SerialFallbackWarning):
                out = parallel_map(
                    _unpicklable_result, range(6), workers=2, amortize=False
                )
        assert [item for item, _ in out] == list(range(6))
        assert report.count("serial-fallback") == 1


class TestSimulationCache:
    def test_hit_returns_identical_result(self, fig2_result):
        cache = SimulationCache()
        system = fig2_result.distributed_system()
        model = BernoulliCompletion(p=0.7)
        first = simulate_cached(
            system, fig2_result.bound, model, cache=cache, seed=3
        )
        second = simulate_cached(
            system, fig2_result.bound, BernoulliCompletion(p=0.7),
            cache=cache, seed=3,
        )
        assert cache.hits == 1 and cache.misses == 1
        assert first == second
        direct = simulate(
            system, fig2_result.bound, BernoulliCompletion(p=0.7), seed=3
        )
        assert second.cycles == direct.cycles
        assert second.fast_outcomes == direct.fast_outcomes

    def test_key_sensitivity(self, fig2_result, fig3_result):
        cache = SimulationCache()
        model = BernoulliCompletion(p=0.7)
        base = cache.key(
            fig2_result.distributed_system(), fig2_result.bound, model,
            seed=0, iterations=1,
        )
        assert base != cache.key(
            fig2_result.distributed_system(), fig2_result.bound, model,
            seed=1, iterations=1,
        )
        assert base != cache.key(
            fig2_result.distributed_system(), fig2_result.bound, model,
            seed=0, iterations=2,
        )
        assert base != cache.key(
            fig3_result.distributed_system(), fig3_result.bound, model,
            seed=0, iterations=1,
        )

    def test_directory_backed_survives_new_instance(
        self, tmp_path, fig2_result
    ):
        path = str(tmp_path / "simcache")
        system = fig2_result.distributed_system()
        first = simulate_cached(
            system, fig2_result.bound, BernoulliCompletion(p=0.5),
            cache=SimulationCache(path), seed=1,
        )
        fresh = SimulationCache(path)
        second = simulate_cached(
            system, fig2_result.bound, BernoulliCompletion(p=0.5),
            cache=fresh, seed=1,
        )
        assert fresh.hits == 1 and fresh.misses == 0
        assert first == second

    def test_trace_request_bypasses_cache(self, fig2_result):
        cache = SimulationCache()
        simulate_cached(
            fig2_result.distributed_system(), fig2_result.bound,
            BernoulliCompletion(p=0.7), cache=cache, seed=0,
            record_trace=True,
        )
        assert len(cache) == 0 and cache.misses == 0

    def test_fingerprints_are_stable_hex(self, fig2_result):
        fp = design_fingerprint(fig2_result.bound)
        assert fp == design_fingerprint(fig2_result.bound)
        assert len(fp) == 64
        sp = system_fingerprint(fig2_result.distributed_system())
        assert sp == system_fingerprint(fig2_result.distributed_system())
        assert model_fingerprint(
            BernoulliCompletion(p=0.7)
        ) != model_fingerprint(BernoulliCompletion(p=0.9))

    def test_monte_carlo_with_cache_matches_without(self, fig2_result):
        system = fig2_result.distributed_system()
        plain = monte_carlo_latency(
            system, fig2_result.bound, p=0.7, trials=25, seed=0
        )
        cache = SimulationCache()
        cached = monte_carlo_latency(
            system, fig2_result.bound, p=0.7, trials=25, seed=0, cache=cache,
        )
        assert cached == plain
        assert cache.misses == 25
        again = monte_carlo_latency(
            system, fig2_result.bound, p=0.7, trials=25, seed=0, cache=cache,
        )
        assert again == plain
        assert cache.hits == 25


class TestSelfHealingCaches:
    """Corrupt cache files are quarantined and recomputed, never raised."""

    def _seed_entry(self, path, fig2_result):
        cache = SimulationCache(path)
        system = fig2_result.distributed_system()
        model = BernoulliCompletion(p=0.5)
        first = simulate_cached(
            system, fig2_result.bound, model, cache=cache, seed=2
        )
        key = cache.key(
            system, fig2_result.bound, model, seed=2, iterations=1
        )
        return first, key, os.path.join(path, f"{key}.json")

    def test_truncated_file_is_a_miss_not_an_error(
        self, tmp_path, fig2_result
    ):
        # regression: a truncated entry used to raise JSONDecodeError
        # out of get(); now it is quarantined and recomputed
        path = str(tmp_path / "simcache")
        first, key, file_path = self._seed_entry(path, fig2_result)
        with open(file_path) as handle:
            blob = handle.read()
        with open(file_path, "w") as handle:
            handle.write(blob[: len(blob) // 2])
        fresh = SimulationCache(path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1
        assert os.path.exists(file_path + ".corrupt")
        model = BernoulliCompletion(p=0.5)
        recomputed = simulate_cached(
            fig2_result.distributed_system(), fig2_result.bound, model,
            cache=fresh, seed=2,
        )
        assert recomputed == first
        assert SimulationCache(path).get(key) == first

    def test_checksum_mismatch_quarantined(self, tmp_path, fig2_result):
        import json

        path = str(tmp_path / "simcache")
        _, key, file_path = self._seed_entry(path, fig2_result)
        with open(file_path) as handle:
            data = json.load(handle)
        data["payload"]["cycles"] = data["payload"]["cycles"] + 1
        with open(file_path, "w") as handle:
            json.dump(data, handle)
        fresh = SimulationCache(path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1

    def test_quarantine_reports_to_ambient_report(
        self, tmp_path, fig2_result
    ):
        from repro.runtime import active_report

        path = str(tmp_path / "simcache")
        _, key, file_path = self._seed_entry(path, fig2_result)
        with open(file_path, "w") as handle:
            handle.write("not json at all")
        with active_report() as report:
            assert SimulationCache(path).get(key) is None
        assert report.count("cache-quarantine") == 1

    def test_synthesis_cache_truncated_entry_heals(self, tmp_path):
        from repro.perf.cache import SynthesisCache

        path = str(tmp_path / "syncache")
        cache = SynthesisCache(path)
        key = SynthesisCache.key("schedule", {"dfg": "abc"}, {"opt": 1})
        cache.put(key, {"artifact": [1, 2, 3]})
        file_path = os.path.join(path, f"{key}.syn.json")
        with open(file_path, "w") as handle:
            handle.write('{"sha256": "dead')
        fresh = SynthesisCache(path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1
        fresh.put(key, {"artifact": [1, 2, 3]})
        assert SynthesisCache(path).get(key) == {"artifact": [1, 2, 3]}

    def test_legacy_bare_payload_still_readable(self, tmp_path):
        import json

        from repro.perf.cache import SynthesisCache

        path = str(tmp_path / "syncache")
        cache = SynthesisCache(path)
        key = SynthesisCache.key("bind", {"order": "xyz"}, {})
        # a pre-envelope file: bare payload, no checksum wrapper
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, f"{key}.syn.json"), "w") as handle:
            json.dump({"legacy": True}, handle)
        assert cache.get(key) == {"legacy": True}
        assert cache.quarantined == 0


class TestBench:
    def test_quick_bench_structure(self):
        report = run_bench(
            ("fig3",), quick=True, trials=16, workers=2, seed=0
        )
        assert isinstance(report, BenchReport)
        assert report.data["quick"] is True
        assert report.data["schema"] == 3
        assert report.data["p"] == 0.7
        assert report.data["completion"] == "bernoulli:0.7"
        assert list(report.data["benchmarks"]) == ["fig3"]
        row = report.data["benchmarks"]["fig3"]
        mc = row["monte_carlo"]
        assert mc["completion"] == "bernoulli:0.7"
        assert mc["trials"] == 16
        assert mc["serial_s"] > 0 and mc["parallel_s"] > 0
        assert mc["speedup"] == pytest.approx(
            mc["serial_s"] / mc["parallel_s"], rel=1e-2
        )
        engine = row["exact_engine"]
        assert engine["method"] == "frontier-dp"
        assert "exact_expectation" not in row
        # an opaque callable forces the 2**k enumerator as the reference
        from repro.analysis.latency import (
            DistLatencyEvaluator,
            exact_expected_latency,
        )
        from repro.api import synthesize
        from repro.benchmarks.registry import benchmark

        entry = benchmark("fig3")
        bound = synthesize(entry.dfg(), entry.allocation()).bound
        evaluator = DistLatencyEvaluator(bound)
        enumerated = exact_expected_latency(
            lambda fast: evaluator(fast), bound.telescopic_ops(), 0.7
        )
        assert engine["mean_cycles"] == pytest.approx(enumerated, abs=1e-6)
        assert "repro bench" in report.render()

    def test_report_round_trips_to_json(self, tmp_path):
        report = run_bench(("fig3",), quick=True, trials=8, workers=1)
        out = tmp_path / "BENCH.json"
        report.write(str(out))
        text = out.read_text()
        assert text.endswith("\n")
        import json

        assert json.loads(text) == report.data
