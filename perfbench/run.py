"""Benchmark entry point.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Runs one workload (``compile``, ``latency``, ``campaign`` or ``area``,
see ``workloads.py``) closed loop: each op is issued after the previous
one returns, in whole passes over the seeded op list, for about
``--seconds``.  Every op is timed from outside through the public API;
an op's time is its median over the passes.  Output checks run after
the timed phase.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` measures half the window untraced, then one
traced pass (plus its replay, and for campaign one in-process pass),
prints the per-layer metrics of that pass with the tracing overhead,
and writes the spans as Chrome trace-event JSON under
``.perfbench_work/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: set-ups per run; ``setup_s`` is the median import time plus the
#: median fixture build
SETUP_REPEATS = 3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: every per-layer metric; a workload that bypasses a layer reports 0
PER_LAYER = (
    ("pipeline.overhead_s", "s"),
    ("core.busy_s", "s"),
    ("scheduling.busy_s", "s"),
    ("binding.busy_s", "s"),
    ("control.busy_s", "s"),
    ("rtl.busy_s", "s"),
    ("verify.lint.busy_s", "s"),
    ("verify.lint.diagnostics", "count"),
    ("verify.modelcheck.busy_s", "s"),
    ("verify.modelcheck.states", "count"),
    ("verify.modelcheck.states_per_s", "1/s"),
    ("verify.modelcheck.refused", "count"),
    ("perf.cache.put_s", "s"),
    ("perf.cache.get_s", "s"),
    ("perf.cache.hit_share", "ratio"),
    ("analysis.exact.busy_s", "s"),
    ("analysis.exact.dp_states", "count"),
    ("analysis.exact.max_cut_width", "count"),
    ("analysis.exact.answered_share", "ratio"),
    ("sim.batch.busy_s", "s"),
    ("sim.batch.cold_s", "s"),
    ("sim.batch.memo_transitions", "count"),
    ("sim.batch.failed", "count"),
    ("sim.batch.retained_engines", "count"),
    ("sim.batch.scalar_mismatches", "count"),
    ("fsm.area.busy_s", "s"),
    ("fsm.encode.busy_s", "s"),
    ("logic.primes.busy_s", "s"),
    ("logic.cover.busy_s", "s"),
    ("logic.minimize.calls", "count"),
    ("logic.primes.count", "count"),
    ("sim.simulate.busy_s", "s"),
    ("sim.simulate.cycles", "count"),
    ("faults.busy_s", "s"),
    ("faults.detected_share", "ratio"),
    ("faults.silent", "count"),
    ("runtime.journal.put_s", "s"),
    ("runtime.journal.get_s", "s"),
    ("runtime.journal.new_shards", "count"),
    ("runtime.journal.replayed", "count"),
    ("runtime.journal.quarantined", "count"),
    ("perf.pool.wait_s", "s"),
    ("perf.pool.serial_decisions", "count"),
    ("perf.pool.pool_decisions", "count"),
    ("sim.controllers.busy_s", "s"),
    ("sim.controllers.step_calls", "count"),
    ("trace.overhead_pct", "%"),
    ("op_tail_ms", "ms"),
    ("failed_share", "ratio"),
    ("trials_per_s", "1/s"),
    ("replay_ops_per_s", "1/s"),
    ("paper_error_pct", "%"),
    ("area_literals", "count"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("compile", "latency", "campaign", "area"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """Outputs and op times of a run of cold passes (or one replay)."""

    def __init__(self, replay: bool = False) -> None:
        self.replay = replay
        self.passes: list[list] = []  # outputs per pass
        self.times: list[list[float]] = []  # op seconds per pass
        self.raised: list[tuple[str, str]] = []
        self.elapsed = 0.0
        self.peak_rss_mb = 0.0

    @property
    def count(self) -> int:
        return sum(len(p) for p in self.passes)

    def op_seconds(self) -> list[float]:
        """Each op's median time over the passes.

        The host's speed drifts while a run measures; an op's median
        over the passes does not count a stall that hit one pass.
        """
        return [statistics.median(col) for col in zip(*self.times)]


def run_ops(workload, phase: Phase, op_id: list) -> None:
    """One closed-loop pass over the workload's ops.

    An op that raises is a failed op, not a crash: its exception is
    kept as its output and counted in ``failed_share``.
    """
    outputs, times = [], []
    for op in workload.ops:
        workload.rec.op = op_id[0]
        op_id[0] += 1
        started = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # an op failure is a result, not a crash
            output = exc
            phase.raised.append(
                (op.label, f"raised {type(exc).__name__}: {exc}"[:200])
            )
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - started)
        outputs.append(output)
    phase.passes.append(outputs)
    phase.times.append(times)


def timed_passes(workload, seconds: float, op_id: list) -> Phase:
    """Whole passes for about ``seconds`` (at least one pass).

    Another pass starts only if it is expected to end less than half a
    pass past the window, so a workload whose pass is about as long as
    the window runs one pass, not two.  ``peak_rss_mb`` is read after
    the first pass, so it covers a fixed amount of work however many
    passes the window holds.
    """
    phase = Phase()
    started = time.perf_counter()
    while True:
        workload.begin_pass()
        run_ops(workload, phase, op_id)
        workload.end_pass()
        if len(phase.passes) == 1:
            phase.peak_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(phase.passes) >= seconds:
            break
    phase.elapsed = time.perf_counter() - started
    return phase


def replay_phase(workload, op_id: list) -> "Phase | None":
    """Replay the last cold pass from warm state, timed as one block."""
    if not workload.begin_replay():
        return None
    phase = Phase(replay=True)
    started = time.perf_counter()
    run_ops(workload, phase, op_id)
    phase.elapsed = time.perf_counter() - started
    return phase


def tail(times: list[float]) -> "tuple[float, int, int] | None":
    """Highest of p99/p95/p90 with at least ten ops beyond it."""
    ordered = sorted(times)
    for pct in (99, 95, 90):
        rank = max(0, -(-pct * len(ordered) // 100) - 1)
        value = ordered[rank]
        beyond = sum(1 for t in ordered if t > value)
        if beyond >= 10:
            return value, pct, beyond
    return None


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its children.

    The children are the pool's workers and the import-timing
    interpreters, which hold a subset of this process's imports.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def canonical(workload, output):
    """JSON-stable rendering of one op output; a raised op renders as
    its exception, which its own failure already counts."""
    if isinstance(output, Exception):
        return f"raised {type(output).__name__}: {output}"
    return workload.canonical(output)


def failures_of(workload, phases: list[Phase], reference: list) -> list:
    """Every failed output check, as ``(op label, check)``.

    Checks see only the outputs of ops that returned; an op that raised
    is already counted by name.
    """
    from workloads import digest

    failed: list[tuple[str, str]] = []
    for phase in phases:
        failed.extend(phase.raised)
    try:
        failed.extend(workload.check(reference))
    except Exception as exc:  # a malformed output breaks its check
        failed.append(("*", f"check raised {type(exc).__name__}: {exc}"))
    expected = [digest(canonical(workload, o)) for o in reference]
    for phase in phases:
        if phase.replay:
            failed.extend(workload.check_replay(phase.passes[0]))
        for outputs in phase.passes:
            for op, output, want in zip(workload.ops, outputs, expected):
                if isinstance(output, Exception):
                    continue
                if digest(canonical(workload, output)) != want:
                    failed.append((op.label, "same-output-every-pass"))
    return failed


def import_seconds() -> float:
    """Seconds a fresh interpreter takes for the benchmark's imports.

    A module is imported once per process, so the other import samples
    of ``setup_s`` come from fresh interpreters.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "started = time.perf_counter()\n"
        "import numpy, repro, workloads\n"
        "print(time.perf_counter() - started)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(done.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}; run from the root of "
            f"a repository checkout",
            file=sys.stderr,
        )
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        memory_cap = json.load(handle)["memory_cap_bytes"]
    # a fixed address-space cap makes MemoryError hit the same ops on
    # every host, and keeps a runaway op off the shared machine
    resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed as part of set-up)
    import repro

    import workloads

    import_s = time.perf_counter() - started
    import_s = statistics.median(
        [import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    )
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], import_s,
                       work_dir, memory_cap)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload_class, import_s, work_dir, memory_cap) -> int:
    import numpy

    from spans import Recorder, patched
    from workloads import digest

    setups = []
    for _ in range(SETUP_REPEATS):
        workload = workload_class(args.seed, work_dir)
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setups)

    op_id = [0]
    window = args.seconds / 2 if args.trace else args.seconds
    cold = timed_passes(workload, window, op_id)
    replay = replay_phase(workload, op_id)
    phases = [cold] + ([replay] if replay else [])
    reference_outputs = cold.passes[0]

    rec = None
    traced_outputs: list = []
    if args.trace:
        from repro.sim.controllers import ControllerSystem

        rec = Recorder()
        workload.rec = rec
        # the shared layer under model checking, simulation and the batch
        # memo; timed into the totals but too frequent to keep as events
        step = rec.wrap(
            "sim.controllers", ControllerSystem.step, keep_events=False
        )
        patches = [(ControllerSystem, "step", step)]
        with patched(patches + workload.trace_patches(rec)):
            traced = timed_passes(workload, 0.0, op_id)  # one pass
            traced_replay = replay_phase(workload, op_id)
            phases += [traced] + ([traced_replay] if traced_replay else [])
            traced_outputs = [o for p in traced.passes for o in p]
            if getattr(workload, "workers", 1) > 1:
                # layers that run inside pool workers are only visible
                # in-process: one more traced pass at workers=1
                workload.workers_now = 1
                inproc = timed_passes(workload, 0.0, op_id)
                workload.workers_now = workload.workers
                phases.append(inproc)
                traced_outputs += inproc.passes[0]
        workload.probes(rec)

    failed_checks = failures_of(workload, phases, reference_outputs)
    failing = {label for label, _ in failed_checks}
    # a check that names no op (or "*") fails every op of the run
    failing_all = bool(failing - {op.label for op in workload.ops})
    attempted = sum(p.count for p in phases)
    failed = sum(
        1
        for phase in phases
        for outputs in phase.passes
        for op, output in zip(workload.ops, outputs)
        if failing_all or op.label in failing
        or isinstance(output, Exception)
    )

    cold_times = [t for row in cold.times for t in row]
    op_seconds = cold.op_seconds()
    ops_per_s = len(op_seconds) / sum(op_seconds)
    end_to_end = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(op_seconds),
        "setup_s": setup_s,
        "peak_rss_mb": cold.peak_rss_mb,
    }
    extras: dict[str, tuple[float, str]] = {
        "failed_share": (failed / attempted, "ratio"),
    }
    tail_value = tail(cold_times)
    if tail_value is not None:
        extras["op_tail_ms"] = (1e3 * tail_value[0], "ms")
    if replay is not None:
        extras["replay_ops_per_s"] = (replay.count / replay.elapsed, "1/s")
    if not cold.raised:
        extras.update(workload.extras(reference_outputs, op_seconds))

    decisions = getattr(workload, "decisions", [])
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "memory_cap_bytes": memory_cap,
        "ops_per_pass": len(workload.ops),
        "cold_passes": len(cold.passes),
        "pass_seconds": [round(sum(row), 3) for row in cold.times],
        "attempted": attempted,
        "failed": failed,
        "inputs": workload.info,
        "digest": digest(
            [canonical(workload, o) for o in reference_outputs]
        ),
        "pool_decisions": decisions[0] if decisions else [],
        "pool_decisions_differ": any(d != decisions[0] for d in decisions),
    }
    print("# run " + json.dumps(run_record, sort_keys=True))
    if run_record["pool_decisions_differ"]:
        print("# FLAG: the pool's amortization probe decided differently "
              "across passes of this run")
    for label, check in failed_checks:
        print(f"# FAILED {label}: {check}")

    units = dict(END_TO_END)
    for name, value in end_to_end.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in sorted(extras.items()):
        note = ""
        if name == "op_tail_ms":
            note = (f" (p{tail_value[1]}, {tail_value[2]} of "
                    f"{len(cold_times)} ops beyond)")
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")

    if args.trace:
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update(
            {k: v for k, v in rec.counters.items() if k in layers}
        )
        layers.update(workload.layer_metrics(rec, traced_outputs))
        layers.update(
            {name: value for name, (value, _) in extras.items()}
        )
        layers["sim.controllers.busy_s"] = rec.self_time.get(
            "sim.controllers", 0.0
        )
        layers["sim.controllers.step_calls"] = rec.calls.get(
            "sim.controllers", 0
        )
        traced_seconds = traced.op_seconds()
        traced_ops_per_s = len(traced_seconds) / sum(traced_seconds)
        layers["trace.overhead_pct"] = (
            100.0 * (ops_per_s - traced_ops_per_s) / ops_per_s
        )
        unknown = set(layers) - {name for name, _ in PER_LAYER}
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics {unknown}")
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        rec.write(str(trace_path), run_record)
        print(f"# trace written to {trace_path}")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER
        }
        for name, unit in PER_LAYER:
            print(f"{args.workload} layer {name} = {layers[name]:.6g} {unit}")
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
