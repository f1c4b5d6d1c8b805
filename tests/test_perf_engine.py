"""Tests for the parallel execution engine (:mod:`repro.perf`)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SerialFallbackWarning, SimulationError
from repro.perf.bench import BenchReport, run_bench
from repro.perf.cache import design_fingerprint, system_fingerprint
from repro.perf.engine import (
    default_chunksize,
    derive_seed,
    parallel_map,
    resolve_workers,
)

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


class TestFingerprints:
    def test_fingerprints_are_stable_hex(self, fig2_result):
        fp = design_fingerprint(fig2_result.bound)
        assert fp == design_fingerprint(fig2_result.bound)
        assert len(fp) == 64
        sp = system_fingerprint(fig2_result.distributed_system())
        assert sp == system_fingerprint(fig2_result.distributed_system())
        assert len(sp) == 64


class TestSelfHealingCaches:
    """Corrupt cache files are quarantined and recomputed, never raised."""

    def test_synthesis_cache_truncated_entry_heals(self, tmp_path):
        import json

        from repro.perf.cache import SynthesisCache
        from repro.runtime import active_report

        def tampered(text):
            # still JSON, but the payload no longer matches its checksum
            data = json.loads(text)
            data["payload"]["artifact"].append(4)
            return json.dumps(data)

        def flipped(text):
            # the canonical envelope with one payload byte changed; the
            # payload still parses, but not to what was hashed
            assert text.startswith('{"payload":{"artifact":[1,2,3]}')
            return text.replace("[1,2,3]", "[1,2,7]", 1)

        corruptions = {
            # regression: a truncated entry used to raise
            # JSONDecodeError out of get()
            "truncated": (
                lambda text: '{"sha256": "dead',
                "is unreadable or truncated",
            ),
            "checksum-mismatch": (tampered, "failed its checksum"),
            "flipped-payload-byte": (flipped, "failed its checksum"),
        }
        for name, (corrupt, reason) in corruptions.items():
            path = str(tmp_path / name)
            cache = SynthesisCache(path)
            key = SynthesisCache.key("schedule", {"dfg": "abc"}, {"opt": 1})
            cache.put(key, {"artifact": [1, 2, 3]})
            file_path = os.path.join(path, f"{key}.syn.json")
            with open(file_path) as handle:
                text = handle.read()
            with open(file_path, "w") as handle:
                handle.write(corrupt(text))
            fresh = SynthesisCache(path)
            with active_report() as report:
                assert fresh.get(key) is None, name
            assert fresh.quarantined == 1, name
            assert report.count("cache-quarantine") == 1, name
            assert reason in report.events[0].detail, name
            assert os.path.exists(file_path + ".corrupt"), name
            fresh.put(key, {"artifact": [1, 2, 3]})
            assert SynthesisCache(path).get(key) == {"artifact": [1, 2, 3]}
        # an envelope in another JSON layout still verifies: its payload
        # is re-serialized canonically for the checksum
        path = str(tmp_path / "non-canonical")
        key = SynthesisCache.key("schedule", {"dfg": "abc"}, {"opt": 1})
        SynthesisCache(path).put(key, {"artifact": [1, 2, 3]})
        file_path = os.path.join(path, f"{key}.syn.json")
        with open(file_path) as handle:
            data = json.load(handle)
        with open(file_path, "w") as handle:
            json.dump(
                {"sha256": data["sha256"], "payload": data["payload"]},
                handle,
                indent=1,
            )
        fresh = SynthesisCache(path)
        with active_report() as report:
            assert fresh.get(key) == {"artifact": [1, 2, 3]}
        assert fresh.quarantined == 0
        assert report.count("cache-quarantine") == 0

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
