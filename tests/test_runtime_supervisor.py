"""Tests for the supervised process pool (:mod:`repro.runtime`)."""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures.process import _ExecutorManagerThread
from functools import partial

import pytest

from repro.errors import SimulationError, SupervisionError
from repro.perf.engine import derive_seed, parallel_map
from repro.resources.completion import BernoulliCompletion
from repro.runtime import (
    ChaosConfig,
    RunPolicy,
    RunReport,
    active_report,
)
from repro.sim.simulator import simulate


def _square(x: int) -> int:
    return x * x


def _crashy_latency_trial(
    system, bound, sentinel_dir: str, crash_trial: int, trial: int
) -> int:
    """Monte-Carlo trial that kills its worker once on ``crash_trial``.

    The first worker to reach the chosen trial claims a sentinel file
    (O_EXCL, so exactly one claim ever succeeds) and dies with
    ``os._exit(1)`` — indistinguishable from an OOM kill or a segfault.
    Every later attempt finds the sentinel and computes normally.
    """
    if trial == crash_trial:
        marker = os.path.join(sentinel_dir, f"crash-{trial}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            pass
    return simulate(
        system, bound, BernoulliCompletion(0.7),
        seed=derive_seed(0, trial),
    ).cycles


class TestRunPolicy:
    def test_rejects_unknown_on_failure(self):
        with pytest.raises(SimulationError):
            RunPolicy(on_failure="explode")

    def test_rejects_negative_knobs(self):
        with pytest.raises(SimulationError):
            RunPolicy(max_retries=-1)
        with pytest.raises(SimulationError):
            RunPolicy(timeout_s=0)
        with pytest.raises(SimulationError):
            RunPolicy(backoff_s=-0.1)

    def test_retry_budget(self):
        assert RunPolicy(max_retries=2).retry_budget() == 3
        assert RunPolicy(on_failure="raise", max_retries=9).retry_budget() == 1

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RunPolicy(backoff_s=0.1)
        first = policy.backoff_delay(3, 1)
        assert first == policy.backoff_delay(3, 1)
        assert first != policy.backoff_delay(4, 1)
        # exponential growth with jitter in [0.5, 1.5)
        assert 0.05 <= first < 0.15
        assert 0.1 <= policy.backoff_delay(3, 2) < 0.3
        assert RunPolicy(backoff_s=0.0).backoff_delay(3, 1) == 0.0


class TestRunReport:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            RunReport().record("made-up", "detail")

    def test_counts_and_render(self):
        report = RunReport()
        assert "clean" in report.render()
        report.record("retry", "once", item=3, attempt=1)
        report.record("retry", "twice", item=3, attempt=2)
        report.record("skip", "gone", item=3)
        assert report.recoveries == 3
        assert report.counts() == {"retry": 2, "skip": 1}
        assert report.to_dict()["events"][0]["item"] == 3
        assert "item 3" in report.render()

    def test_ambient_nesting_innermost_wins(self):
        from repro.runtime.policy import current_report, record_event

        assert current_report() is None
        with active_report() as outer:
            with active_report() as inner:
                record_event(None, "skip", "x")
            assert inner.recoveries == 1
            assert outer.recoveries == 0
        assert current_report() is None


class TestSupervisedMap:
    def test_clean_run_matches_serial(self):
        report = RunReport()
        out = parallel_map(
            _square, range(23), workers=3,
            policy=RunPolicy(), report=report,
        )
        assert out == [x * x for x in range(23)]
        assert report.recoveries == 0

    def test_clean_return_leaves_no_pool_running(self):
        """A supervised map that abandoned nothing joins its pool: no
        worker process or executor manager thread outlives it."""
        before_children = set(multiprocessing.active_children())
        before_threads = set(threading.enumerate())
        out = parallel_map(
            _square, range(40), workers=2, policy=RunPolicy()
        )
        assert out == [x * x for x in range(40)]
        assert set(multiprocessing.active_children()) <= before_children
        assert not [
            thread
            for thread in threading.enumerate()
            if isinstance(thread, _ExecutorManagerThread)
            and thread not in before_threads
        ]

    def test_worker_crash_recovered(self, tmp_path):
        report = RunReport()
        policy = RunPolicy(
            chaos=ChaosConfig(
                crash_items=(5,), sentinel_dir=str(tmp_path)
            ),
        )
        out = parallel_map(
            _square, range(12), workers=2, policy=policy, report=report,
        )
        assert out == [x * x for x in range(12)]
        assert report.count("worker-crash") >= 1
        assert report.count("pool-restart") >= 1

    def test_injected_failure_retried(self, tmp_path):
        report = RunReport()
        policy = RunPolicy(
            backoff_s=0.0,
            chaos=ChaosConfig(
                fail_items=(4,), sentinel_dir=str(tmp_path)
            ),
        )
        out = parallel_map(
            _square, range(8), workers=2, policy=policy, report=report,
        )
        assert out == [x * x for x in range(8)]
        assert report.count("retry") == 1

    def test_skip_leaves_a_none_hole(self, tmp_path):
        report = RunReport()
        policy = RunPolicy(
            on_failure="skip", max_retries=1, backoff_s=0.0,
            chaos=ChaosConfig(
                fail_items=(3,), once=False, sentinel_dir=str(tmp_path)
            ),
        )
        out = parallel_map(
            _square, range(8), workers=2, policy=policy, report=report,
        )
        assert out[3] is None
        assert [v for i, v in enumerate(out) if i != 3] == [
            x * x for x in range(8) if x != 3
        ]
        assert report.count("skip") == 1

    def test_raise_fails_fast(self, tmp_path):
        policy = RunPolicy(
            on_failure="raise",
            chaos=ChaosConfig(
                fail_items=(2,), once=False, sentinel_dir=str(tmp_path)
            ),
        )
        with pytest.raises(SupervisionError) as excinfo:
            parallel_map(_square, range(8), workers=2, policy=policy)
        assert excinfo.value.item == 2
        assert excinfo.value.attempts == 1

    def test_serial_degrade_final_attempt(self, tmp_path):
        report = RunReport()
        policy = RunPolicy(
            on_failure="serial", max_retries=1, backoff_s=0.0,
            chaos=ChaosConfig(
                fail_items=(6,), once=False, sentinel_dir=str(tmp_path)
            ),
        )
        out = parallel_map(
            _square, range(8), workers=2, policy=policy, report=report,
        )
        # chaos is worker-only, so the in-process last attempt succeeds
        assert out == [x * x for x in range(8)]
        assert report.count("serial-degrade") == 1

    def test_hung_chunk_degrades_after_timeout(self, tmp_path):
        report = RunReport()
        policy = RunPolicy(
            timeout_s=0.2,
            chaos=ChaosConfig(
                hang_items=(1,), hang_s=3.0, sentinel_dir=str(tmp_path)
            ),
        )
        out = parallel_map(
            _square, range(4), workers=2, policy=policy, report=report,
        )
        assert out == [0, 1, 4, 9]
        assert report.count("timeout") >= 1
        assert report.count("timeout-degrade") >= 1

    def test_ambient_report_collects_without_explicit_param(self, tmp_path):
        policy = RunPolicy(
            backoff_s=0.0,
            chaos=ChaosConfig(
                fail_items=(0,), sentinel_dir=str(tmp_path)
            ),
        )
        with active_report() as report:
            parallel_map(_square, range(4), workers=2, policy=policy)
        assert report.count("retry") == 1


class TestCrashRecoveryAcrossStyles:
    """A mid-campaign worker kill never changes the computed results.

    For every controller style the paper compares, a supervised
    Monte-Carlo sweep whose worker deterministically dies on one chosen
    trial returns exactly the list the serial loop produces.
    """

    @pytest.mark.parametrize("style", ["dist", "cent-sync", "cent"])
    def test_parallel_with_crash_equals_serial(
        self, style, fig2_result, tmp_path
    ):
        system = fig2_result.system(style)
        bound = fig2_result.bound
        trials = 8
        crash_trial = 5
        serial = [
            simulate(
                system, bound, BernoulliCompletion(0.7),
                seed=derive_seed(0, trial),
            ).cycles
            for trial in range(trials)
        ]
        report = RunReport()
        supervised = parallel_map(
            partial(
                _crashy_latency_trial, system, bound,
                str(tmp_path), crash_trial,
            ),
            range(trials),
            workers=2,
            policy=RunPolicy(on_failure="retry"),
            report=report,
        )
        assert supervised == serial
        assert report.count("worker-crash") >= 1
        assert os.path.exists(
            os.path.join(str(tmp_path), f"crash-{crash_trial}")
        )
