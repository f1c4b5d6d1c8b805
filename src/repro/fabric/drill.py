"""The failover chaos drill behind ``repro fabric drill``.

Three phases, each proving one leg of the fabric's recovery story
against a serial in-memory baseline:

1. **worker SIGKILL** — a Table-2 campaign runs on the fabric while a
   chaos injection delivers ``kill -9`` to the worker node computing
   one of the rows; the coordinator must revoke the lease, respawn a
   node, reassign the shard and render output *byte-identical* to the
   serial baseline, with the failover visible as ``node-loss`` /
   ``lease-revoke`` / ``node-restart`` events in the
   :class:`~repro.runtime.policy.RunReport`;
2. **coordinator restart** — the same campaign is interrupted by a
   deterministic :class:`~repro.errors.CheckpointInterrupted` after the
   first committed shard (the stand-in for killing the coordinator
   process mid-run); a fresh run over the same checkpoint directory
   must replay the committed shard from the replicated journal and
   finish byte-identically;
3. **bench under node kill** — a quick ``run_bench`` row is computed
   on the fabric while its node is killed; every deterministic field
   of the BENCH JSON (cycle counts, Monte-Carlo statistics, exact
   expectations) must match a serial run (timing fields legitimately
   differ, so they are excluded).

The drill writes the rendered serial and fabric Table-2 outputs to
``table2-serial.txt`` / ``table2-fabric.txt`` in its working directory
so CI can ``cmp`` them as files, and its structured outcome (including
the per-phase RunReports) is uploadable as a JSON artifact.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from ..errors import CheckpointInterrupted
from ..runtime.chaos import ChaosConfig
from ..runtime.journal import CheckpointJournal, atomic_write_text
from ..runtime.policy import RunPolicy, RunReport
from .runtime import FabricConfig

#: fast drill timing — tight heartbeats so failure detection is quick
DRILL_HEARTBEAT_S = 0.1
DRILL_LEASE_TIMEOUT_S = 20.0


@dataclass
class DrillOutcome:
    """Structured pass/fail record of one drill run."""

    checks: "list[tuple[str, bool, str]]" = field(default_factory=list)
    phase_reports: "dict[str, dict]" = field(default_factory=dict)
    workdir: "str | None" = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "phase_reports": self.phase_reports,
        }

    def render(self) -> str:
        lines = [
            "fabric failover drill: "
            + ("PASS" if self.passed else "FAIL")
        ]
        for name, ok, detail in self.checks:
            mark = "ok" if ok else "FAIL"
            line = f"  [{mark:4s}] {name}"
            if detail:
                line += f" — {detail}"
            lines.append(line)
        return "\n".join(lines)


def _fabric_config(nodes: int) -> FabricConfig:
    return FabricConfig(
        nodes=nodes,
        heartbeat_s=DRILL_HEARTBEAT_S,
        lease_timeout_s=DRILL_LEASE_TIMEOUT_S,
    )


def _bench_deterministic(data: dict) -> dict:
    """The deterministic subset of a BENCH document (no timings)."""
    out = {}
    for name, row in data["benchmarks"].items():
        entry = {
            "simulated_cycles": row["simulated_cycles"],
            "mean_cycles": row["monte_carlo"]["mean_cycles"],
            "p95_cycles": row["monte_carlo"]["p95_cycles"],
        }
        engine = row.get("exact_engine")
        if engine is not None:
            entry["exact_value"] = engine["mean_cycles"]
        out[name] = entry
    return out


def run_drill(
    *,
    rows: int = 3,
    nodes: int = 2,
    report_path: "str | None" = None,
    keep_dir: "str | None" = None,
) -> DrillOutcome:
    """Run all three failover phases; see the module docstring."""
    from ..benchmarks.registry import table2_benchmarks
    from ..experiments.table2 import run_table2
    from ..perf.bench import run_bench

    rows = max(2, rows)
    entries = list(table2_benchmarks())[:rows]
    outcome = DrillOutcome()
    workdir = keep_dir or tempfile.mkdtemp(prefix="repro-fabric-drill-")
    os.makedirs(workdir, exist_ok=True)
    outcome.workdir = workdir
    try:
        baseline = run_table2(entries=entries).render()
        atomic_write_text(
            os.path.join(workdir, "table2-serial.txt"), baseline + "\n"
        )

        # Phase 1 — SIGKILL a worker node mid-campaign.  The hang on
        # shard 0 keeps the campaign open past the supervisor's next
        # reap tick, so the respawn leg is exercised even when every
        # row computes faster than failure detection.
        kill_dir = os.path.join(workdir, "worker-kill")
        chaos = ChaosConfig(
            node_kill_items=(1,),
            hang_items=(0,),
            hang_s=0.75,
            sentinel_dir=os.path.join(workdir, "sentinels-kill"),
        )
        os.makedirs(chaos.sentinel_dir, exist_ok=True)
        report = RunReport()
        fabric_out = run_table2(
            entries=entries,
            checkpoint=kill_dir,
            policy=RunPolicy(chaos=chaos),
            report=report,
            fabric=_fabric_config(nodes),
        ).render()
        atomic_write_text(
            os.path.join(workdir, "table2-fabric.txt"),
            fabric_out + "\n",
        )
        outcome.phase_reports["worker-kill"] = report.to_dict()
        outcome.check(
            "worker-kill: byte-identical Table 2",
            fabric_out == baseline,
        )
        for kind in ("node-loss", "lease-revoke", "node-restart"):
            outcome.check(
                f"worker-kill: {kind} recorded",
                report.count(kind) >= 1,
                f"{report.count(kind)} event(s)",
            )

        # Phase 2 — coordinator killed after one committed shard,
        # fresh coordinator resumes the same checkpoint directory.
        restart_dir = os.path.join(workdir, "coord-restart")
        report = RunReport()
        interrupted = False
        try:
            run_table2(
                entries=entries,
                checkpoint=CheckpointJournal(
                    restart_dir, max_new_shards=1
                ),
                report=report,
                fabric=_fabric_config(nodes),
            )
        except CheckpointInterrupted:
            interrupted = True
        outcome.check(
            "coordinator-restart: first run interrupted", interrupted
        )
        committed = sum(
            name.endswith(".shard.pkl")
            for name in os.listdir(restart_dir)
        )
        outcome.check(
            "coordinator-restart: shard committed before interrupt",
            committed >= 1,
            f"{committed} shard(s) on disk",
        )
        resumed = run_table2(
            entries=entries,
            checkpoint=restart_dir,
            report=report,
            fabric=_fabric_config(nodes),
        ).render()
        outcome.phase_reports["coordinator-restart"] = report.to_dict()
        outcome.check(
            "coordinator-restart: byte-identical Table 2 after resume",
            resumed == baseline,
        )

        # Phase 3 — BENCH deterministic fields survive a node kill.
        bench_kwargs = dict(
            benchmarks=("diffeq",),
            quick=True,
            trials=30,
            workers=1,
            seed=0,
        )
        serial_bench = _bench_deterministic(
            run_bench(**bench_kwargs).data
        )
        bench_chaos = ChaosConfig(
            node_kill_items=(0,),
            sentinel_dir=os.path.join(workdir, "sentinels-bench"),
        )
        os.makedirs(bench_chaos.sentinel_dir, exist_ok=True)
        report = RunReport()
        fabric_bench = _bench_deterministic(
            run_bench(
                checkpoint_dir=os.path.join(workdir, "bench-ckpt"),
                fabric=_fabric_config(nodes),
                report=report,
                policy=RunPolicy(chaos=bench_chaos),
                **bench_kwargs,
            ).data
        )
        outcome.phase_reports["bench"] = report.to_dict()
        outcome.check(
            "bench: deterministic fields identical under node kill",
            fabric_bench == serial_bench,
            json.dumps(fabric_bench, sort_keys=True),
        )
        outcome.check(
            "bench: node-loss recorded",
            report.count("node-loss") >= 1,
        )
    finally:
        if report_path:
            atomic_write_text(
                report_path,
                json.dumps(outcome.to_dict(), indent=2, sort_keys=True)
                + "\n",
            )
        if keep_dir is None:
            shutil.rmtree(workdir, ignore_errors=True)
            outcome.workdir = None
    return outcome
