"""The four benchmark workloads: compile, latency, campaign and area.

Each workload builds its inputs from the run seed in ``setup`` and then
exposes a list of closed-loop ops.  An op calls the program's public
API once and returns its output; the harness (``run.py``) times the
ops, runs :meth:`Workload.check` on the outputs outside the timed
phase, and asks the workload for its end-to-end extras and, in the
traced run, its per-layer metrics.

Seeded ``gen:`` designs are drawn over the generator's whole parameter
range.  Each workload admits draws only up to a size: above it single
designs cost seconds to a minute per op, or the op fails (model-check
budget refusals, batch-engine ``MemoryError``, batch statistics that
disagree with the scalar simulator), and no run of a few seconds holds
steady or correct on them.  Excluded draws are counted by reason and printed
on every run; ``reference.json`` lists the known failures.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from spans import NullRecorder

#: ``mix`` weights the seeded stream draws from
MIXES = ("2-2-1", "1-1-1", "3-1-1", "1-2-2")

#: exact-query completion points of the latency workload
PS = (0.9, 0.7, 0.5)
PER_UNIT_SPEC = "per-unit:mul=0.9,*=0.6"
MARKOV_SPEC = "markov:0.7,0.5"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


#: op-count slices per round of draws (see ``draw_design_names``)
SLICES = 16


def draw_design_names(seed: int, count: int, admit):
    """``count`` admitted ``gen:`` names, and the excluded draws by reason.

    Draws cover the generator's whole range (ops 6-63, depth 2-12,
    fanout 1-4, pressure 2-5, four mixes).  Op count, pressure and mix
    are stratified, so every seed sees the same spread of sizes and
    unit counts and the seed varies the shape within it: the i-th draw
    of each round of ``SLICES`` falls in the i-th equal slice of 6-63,
    the pressure steps through 2-5 from round to round, and the mix
    shifts by one every four rounds, so that each slice meets every
    (pressure, mix) pair in 16 rounds.  Depth, fanout, the generator
    seed and the op count within its slice are drawn from ``seed``.
    ``admit(name)`` returns ``None`` to take a draw or the reason it is
    excluded; exclusions are counted.
    """
    rng = random.Random(f"perfbench-designs:{seed}")
    names: list[str] = []
    excluded: dict[str, int] = {}
    draw = 0
    while len(names) < count:
        slot, round_ = draw % SLICES, draw // SLICES
        ops = 6 + int((slot + rng.random()) * 58 / SLICES)
        draw += 1
        name = (
            f"gen:ops={ops},depth={rng.randint(2, min(12, ops))},"
            f"fanout={rng.randint(1, 4)},"
            f"mix={MIXES[(round_ // 4 + slot) % len(MIXES)]},"
            f"pressure={2 + round_ % 4},seed={rng.randrange(1000)}"
        )
        reason = admit(name)
        if reason is None:
            names.append(name)
        else:
            excluded[reason] = excluded.get(reason, 0) + 1
    return names, excluded


def size_limit(max_ops: int, max_units: "int | None" = None):
    """An ``admit`` predicate bounding ops and (optionally) units."""

    def admit(name: str) -> "str | None":
        from repro.benchmarks.generate import parse_family
        from repro.benchmarks.registry import benchmark

        if parse_family(name).ops > max_ops:
            return f"ops>{max_ops}"
        if max_units is None:
            return None
        if len(benchmark(name).allocation()) > max_units:
            return f"units>{max_units}"
        return None

    return admit


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]


def returned(ops, outputs):
    """``(op, output)`` pairs of the ops that returned (did not raise)."""
    return [
        (op, output)
        for op, output in zip(ops, outputs)
        if not isinstance(output, Exception)
    ]


class Workload:
    """Base class: inputs, ops, output checks and metrics of one workload."""

    name = ""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.rec = NullRecorder()
        self.ops: list[Op] = []
        self.info: dict = {}
        self._dirs = 0
        self._pass_dir: "str | None" = None

    def fresh_pass_dir(self) -> str:
        """A new directory for one pass's cache or journals.

        The previous pass's directory is removed first, outside any
        timed op.  A pass writes and fsyncs one file per artifact or
        shard, and deleting thousands of files slows later fsyncs for
        seconds; removing one pass's files before each pass puts every
        pass on the same footing, and the run's files do not pile up.
        """
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir)
        self._dirs += 1
        self._pass_dir = os.path.join(
            self.work_dir, f"{self.name}-{self._dirs}"
        )
        os.makedirs(self._pass_dir)
        return self._pass_dir

    # hooks the harness calls -------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Prepare fresh state (caches, journals) for one cold pass."""

    def end_pass(self) -> None:
        """Collect per-pass records once a cold pass has finished."""

    def begin_replay(self) -> bool:
        """Point the ops at the last cold pass's warm state.

        Returns ``False`` for a workload without a replay path.
        """
        return False

    def canonical(self, output):
        """JSON-stable rendering of one op output (for digests)."""
        return output

    def check(self, outputs: list) -> list[tuple[str, str]]:
        """``(op label, check name)`` for every failed output check.

        An output that is an exception (the op raised) is skipped: the
        harness already counts that op as failed.
        """
        return []

    def check_replay(self, outputs: list) -> list[tuple[str, str]]:
        return []

    def extras(self, outputs: list, op_seconds: list[float]) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit).

        ``op_seconds`` is each op's median time over the timed passes.
        """
        return {}

    def trace_patches(self, rec) -> list:
        """``(owner, attribute, wrapper)`` triples for the traced run."""
        return []

    def layer_metrics(self, rec, outputs: list) -> dict:
        return {}

    def probes(self, rec) -> None:
        """Cheap defect probes run after the traced phase."""


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------
class CompileWorkload(Workload):
    """One design through the pipeline up to model-check, then RTL."""

    name = "compile"
    stream = 36
    # model checking explodes with concurrent units: at 23 ops, 2 layers
    # and 12 units one op costs 6x the median design
    admit = staticmethod(size_limit(24, max_units=8))

    def setup(self) -> None:
        from repro.benchmarks.registry import benchmark, core_benchmark_names

        baseline_dir = ROOT / "baselines" / "check"
        fixed = list(core_benchmark_names())
        baselined = sorted(
            path.stem
            for path in baseline_dir.glob("gen:*.json")
        )
        drawn, excluded = draw_design_names(
            self.seed, self.stream, self.admit
        )
        self.info = {"stream": len(drawn), "excluded_draws": excluded}
        self.baselined = set(fixed) | set(baselined)
        self.ops = []
        for name in fixed + baselined + drawn:
            entry = benchmark(name)
            self.ops.append(
                Op(
                    name,
                    functools.partial(
                        self._compile, name, entry.dfg(), entry.allocation()
                    ),
                )
            )
        self.cache_dir = None
        self.cache = None
        self.passes = None
        self.cache_class = None

    def _new_cache(self, path):
        from repro.perf.cache import SynthesisCache

        return (self.cache_class or SynthesisCache)(path)

    def begin_pass(self) -> None:
        self.cache_dir = self.fresh_pass_dir()
        self.cache = self._new_cache(self.cache_dir)

    def _compile(self, name, dfg, allocation):
        from repro.control.verilog_top import distributed_to_verilog
        from repro.pipeline.manager import run_synthesis_pipeline

        with self.rec.span("pipeline", design=name):
            store, manifest = run_synthesis_pipeline(
                dfg,
                allocation,
                upto="model-check",
                options={
                    "verify-artifacts": {"design": name},
                    "model-check": {"design": name},
                },
                cache=self.cache,
                passes=self.passes,
            )
        with self.rec.span("rtl", design=name):
            verilog = distributed_to_verilog(store.get("distributed"))
        return manifest, verilog

    def begin_replay(self) -> bool:
        self.cache = self._new_cache(self.cache_dir)
        self.replay_cache = self.cache
        return True

    def canonical(self, output):
        manifest, verilog = output
        return {
            "passes": [
                [r.name, dict(r.outputs), [dict(d) for d in r.diagnostics]]
                for r in manifest.records
            ],
            "verilog": hashlib.sha256(verilog.encode()).hexdigest(),
        }

    def check(self, outputs: list) -> list[tuple[str, str]]:
        from repro.verify.diagnostics import Diagnostic, DiagnosticReport

        failures = []
        for op, output in returned(self.ops, outputs):
            manifest, _ = output
            reports = {
                kind: DiagnosticReport.build(
                    op.label,
                    [
                        Diagnostic.from_dict(d)
                        for d in manifest.record_for(pass_name).diagnostics
                    ],
                )
                for kind, pass_name in (
                    ("lint", "verify-artifacts"),
                    ("check", "model-check"),
                )
            }
            if op.label in self.baselined:
                for kind, report in reports.items():
                    path = ROOT / "baselines" / kind / f"{op.label}.json"
                    expected = path.read_text(encoding="utf-8")
                    if report.to_json() + "\n" != expected:
                        failures.append((op.label, f"{kind}-baseline"))
            elif reports["check"].diagnostics:
                failures.append((op.label, "modelcheck-clean"))
        return failures

    def check_replay(self, outputs: list) -> list[tuple[str, str]]:
        from repro.pipeline.manifest import CACHED

        return [
            (op.label, "replay-all-cached")
            for op, (manifest, _) in returned(self.ops, outputs)
            if any(
                r.cacheable and r.status != CACHED for r in manifest.records
            )
        ]

    def trace_patches(self, rec) -> list:
        import repro.verify.modelcheck as modelcheck
        from repro.perf.cache import SynthesisCache
        from repro.pipeline.passes import synthesis_passes

        layer = {
            "validate": "core",
            "schedule": "scheduling",
            "order": "scheduling",
            "taubm": "scheduling",
            "bind": "binding",
            "distributed": "control",
            "verify-artifacts": "verify.lint",
            "model-check": "verify.modelcheck",
        }

        def lint_diagnostics(result, store, options, diagnostics):
            rec.count("verify.lint.diagnostics", len(diagnostics))

        self.passes = tuple(
            replace(
                p,
                run=rec.wrap(
                    layer.get(p.name, p.name),
                    p.run,
                    after=(
                        lint_diagnostics
                        if p.name == "verify-artifacts"
                        else None
                    ),
                ),
            )
            for p in synthesis_passes()
        )

        class TracedSynthesisCache(SynthesisCache):
            get = rec.wrap("perf.cache.get", SynthesisCache.get)
            put = rec.wrap("perf.cache.put", SynthesisCache.put)

        self.cache_class = TracedSynthesisCache

        check_store = modelcheck.check_store

        @functools.wraps(check_store)
        def counted_check_store(*args, **kwargs):
            # counts states only: the model-check pass span times it
            result = check_store(*args, **kwargs)
            rec.count("verify.modelcheck.states", result.states)
            return result

        return [(modelcheck, "check_store", counted_check_store)]

    def layer_metrics(self, rec, outputs: list) -> dict:
        self_time = rec.self_time
        counters = rec.counters
        cache = self.replay_cache
        mc_busy = self_time.get("verify.modelcheck", 0.0)
        lookups = cache.hits + cache.misses
        return {
            "pipeline.overhead_s": self_time.get("pipeline", 0.0),
            "core.busy_s": self_time.get("core", 0.0),
            "scheduling.busy_s": self_time.get("scheduling", 0.0),
            "binding.busy_s": self_time.get("binding", 0.0),
            "control.busy_s": self_time.get("control", 0.0),
            "rtl.busy_s": self_time.get("rtl", 0.0),
            "verify.lint.busy_s": self_time.get("verify.lint", 0.0),
            "verify.lint.diagnostics": counters.get(
                "verify.lint.diagnostics", 0
            ),
            "verify.modelcheck.busy_s": mc_busy,
            "verify.modelcheck.states": counters.get(
                "verify.modelcheck.states", 0
            ),
            # states over the pass's whole time, the steps it runs included
            "verify.modelcheck.states_per_s": (
                counters.get("verify.modelcheck.states", 0)
                / (rec.inclusive.get("verify.modelcheck", 0.0) or 1.0)
            ),
            "verify.modelcheck.refused": counters.get(
                "verify.modelcheck.raised", 0
            ),
            "perf.cache.put_s": self_time.get("perf.cache.put", 0.0),
            "perf.cache.get_s": self_time.get("perf.cache.get", 0.0),
            "perf.cache.hit_share": cache.hits / lookups if lookups else 0.0,
        }


# ----------------------------------------------------------------------
# latency
# ----------------------------------------------------------------------
class LatencyWorkload(Workload):
    """Exact and Monte-Carlo latency queries on synthesized designs."""

    name = "latency"
    stream = 30
    # batch Monte-Carlo disagrees with the scalar simulator from 9 units
    admit = staticmethod(size_limit(24, max_units=8))
    mc_trials = 4000

    def setup(self) -> None:
        from repro.benchmarks.registry import benchmark, table2_benchmarks
        from repro.experiments.common import synthesize_entry

        drawn, excluded = draw_design_names(
            self.seed, self.stream, self.admit
        )
        self.info = {"stream": len(drawn), "excluded_draws": excluded}
        self.designs = [
            (entry.name, synthesize_entry(entry, scheduler="exact"))
            for entry in table2_benchmarks()
        ] + [(name, synthesize_entry(benchmark(name))) for name in drawn]
        self.ops = []
        for name, res in self.designs:
            for style in ("dist", "cent-sync"):
                for p in PS:
                    self.ops.append(
                        Op(
                            f"{name}|exact|{style}|{p}",
                            functools.partial(self._exact, res, style, p),
                        )
                    )
            self.ops.append(
                Op(
                    f"{name}|exact|dist|{PER_UNIT_SPEC}",
                    functools.partial(
                        self._exact, res, "dist", PER_UNIT_SPEC
                    ),
                )
            )
            self.ops.append(
                Op(
                    f"{name}|mc|dist|{MARKOV_SPEC}",
                    functools.partial(self._monte_carlo, res),
                )
            )

    def _exact(self, res, style, p):
        from repro.analysis.latency import (
            DistLatencyEvaluator,
            SyncLatencyEvaluator,
            monte_carlo_expected_latency,
        )
        from repro.errors import ExactAnalysisError
        from repro.resources.spec import BernoulliSpec, as_completion_spec

        with self.rec.span("analysis.exact", style=style, p=str(p)):
            try:
                analysis = res.exact_latency_analysis(p, style)
            except ExactAnalysisError:
                self.rec.count("analysis.exact.refused")
            else:
                self.rec.count("analysis.exact.answered")
                self.rec.count("analysis.exact.dp_states", analysis.states)
                self.rec.count(
                    f"analysis.exact.cut_width:{analysis.cut_width}"
                )
                return ("exact", analysis.distribution.pmf)
        # the exact engine refused: fall back to Monte-Carlo, as
        # ``expected_latency`` does
        with self.rec.span("analysis.fallback", style=style, p=str(p)):
            spec = as_completion_spec(p)
            tau_ops = res.bound.telescopic_ops()
            p_value = (
                spec.p
                if isinstance(spec, BernoulliSpec)
                else spec.op_probabilities(res.bound, tau_ops)
            )
            evaluator = (
                DistLatencyEvaluator(res.bound)
                if style == "dist"
                else SyncLatencyEvaluator(res.taubm)
            )
            return (
                "monte-carlo",
                monte_carlo_expected_latency(evaluator, tau_ops, p_value),
            )

    def _monte_carlo(self, res):
        with self.rec.span("sim.runner", spec=MARKOV_SPEC):
            return res.monte_carlo_latency(
                MARKOV_SPEC, trials=self.mc_trials, seed=0
            )

    def canonical(self, output):
        if isinstance(output, tuple):
            return list(output)
        return repr(output)

    def _by_label(self, outputs):
        """Outputs of the ops that returned, by op label."""
        return {op.label: out for op, out in returned(self.ops, outputs)}

    def check(self, outputs: list) -> list[tuple[str, str]]:
        from repro.analysis.distribution import exact_latency_distribution
        from repro.analysis.latency import (
            DistLatencyEvaluator,
            SyncLatencyEvaluator,
        )

        failures = []
        found = self._by_label(outputs)
        for name, res in self.designs:
            tau_ops = res.bound.telescopic_ops()
            evaluators = {
                "dist": DistLatencyEvaluator(res.bound),
                "cent-sync": SyncLatencyEvaluator(res.taubm),
            }
            means = {}
            for style, evaluator in evaluators.items():
                for p in PS:
                    label = f"{name}|exact|{style}|{p}"
                    if label not in found:
                        continue
                    kind, value = found[label]
                    if kind != "exact":
                        means[style, p] = value
                        continue
                    means[style, p] = sum(c * w for c, w in value)
                    if len(tau_ops) > 12:
                        continue
                    # an opaque callable forces the 2**k enumerator
                    brute = exact_latency_distribution(
                        style, lambda fast, f=evaluator: f(fast),
                        tau_ops, p, 1.0, limit=12,
                    ).pmf
                    if [c for c, _ in brute] != [c for c, _ in value] or any(
                        abs(a - b) > 1e-12
                        for (_, a), (_, b) in zip(brute, value)
                    ):
                        failures.append((label, "pmf-equals-enumerator"))
            for p in PS:
                if ("dist", p) not in means or ("cent-sync", p) not in means:
                    continue
                if means["dist", p] > means["cent-sync", p] + 1e-9:
                    failures.append(
                        (f"{name}|exact|dist|{p}", "dist-le-cent-sync")
                    )
            kind, pmf = found.get(f"{name}|exact|dist|0.7", (None, None))
            if kind == "exact":
                label = f"{name}|mc|dist|{MARKOV_SPEC}"
                try:
                    if not self._batch_mean_ok(res, pmf):
                        failures.append((label, "batch-mean-z-bound"))
                except Exception as exc:  # the check fails; the run goes on
                    traceback.print_exc(file=sys.stderr)
                    failures.append(
                        (label, f"batch-mean raised {type(exc).__name__}")
                    )
        failures.extend(self._table2_check(found))
        return failures

    def _batch_mean_ok(self, res, pmf) -> bool:
        """A Bernoulli batch mean lies within 5 sigma of the exact mean."""
        trials = 1000
        stats = res.monte_carlo_latency(
            0.7, trials=trials, seed=self.seed, engine="batch"
        )
        mean = sum(c * w for c, w in pmf)
        sd = math.sqrt(sum(w * (c - mean) ** 2 for c, w in pmf))
        return abs(stats.mean - mean) <= 5.0 * sd / math.sqrt(trials) + 1e-9

    def table2_cells(self, found):
        """``{(design, scheme): [best, e(0.9), e(0.7), e(0.5), worst]}`` ns."""
        cells = {}
        for name, res in self.designs[:6]:
            clock = res.allocation.clock_period_ns()
            for style, scheme in (
                ("cent-sync", "CENT-SYNC"),
                ("dist", "DIST"),
            ):
                answers = [
                    found.get(f"{name}|exact|{style}|{p}") for p in PS
                ]
                if any(a is None or a[0] != "exact" for a in answers):
                    continue  # see ``_table2_check``
                row = [
                    sum(c * w for c, w in pmf) * clock for _, pmf in answers
                ]
                pmf = answers[0][1]
                cells[name, scheme] = (
                    [pmf[0][0] * clock] + row + [pmf[-1][0] * clock]
                )
        return cells

    def _table2_check(self, found):
        """The Table-2 rows match EXPERIMENTS.md's measured table.

        The table prints 0.1 ns; a cell matches when the computed value
        lies within half a printed digit of it, so a value on a rounding
        tie (Diff. CENT-SYNC at P=0.7 is 82.95 ns, printed 83.0 in the
        table and 82.9 by ``repro table2``) matches either rendering.
        """
        failures = []
        measured = reference()["table2_measured"]["rows"]
        cells = self.table2_cells(found)
        for name, _ in self.designs[:6]:
            for scheme, expected in measured[name].items():
                if (name, scheme) in cells:
                    continue
                # a query that raised already failed; one the exact engine
                # refused fails here
                style = "dist" if scheme == "DIST" else "cent-sync"
                failures.extend(
                    (label, "table2-exact")
                    for label in (f"{name}|exact|{style}|{p}" for p in PS)
                    if found.get(label, ("exact",))[0] != "exact"
                )
        for (name, scheme), row in cells.items():
            expected = measured[name][scheme]
            style = "dist" if scheme == "DIST" else "cent-sync"
            if row[0] != expected[0] or row[-1] != expected[-1]:
                failures.append(
                    (f"{name}|exact|{style}|0.9", "table2-best-worst")
                )
            for p, value, cell in zip(PS, row[1:4], expected[1:4]):
                if abs(value - cell) > 0.05 + 1e-9:
                    failures.append(
                        (f"{name}|exact|{style}|{p}", "table2-cell")
                    )
        return failures

    def extras(self, outputs, op_seconds) -> dict:
        found = self._by_label(outputs)
        paper = reference()["table2_paper"]["rows"]
        errors = [
            abs(value - ref) / ref
            for (name, scheme), row in self.table2_cells(found).items()
            for value, ref in zip(row[1:4], paper[name][scheme])
        ]
        mc_time = sum(
            t for op, t in zip(self.ops, op_seconds) if "|mc|" in op.label
        )
        mc_ops = sum(1 for op in self.ops if "|mc|" in op.label)
        return {
            "trials_per_s": (mc_ops * self.mc_trials / mc_time, "1/s"),
            "paper_error_pct": (100.0 * statistics.fmean(errors), "%"),
        }

    def trace_patches(self, rec) -> list:
        import repro.sim.batch as batch

        original = batch.batch_monte_carlo_latency

        def traced_batch(system, bound, *args, **kwargs):
            with rec.span("sim.batch") as args_out:
                try:
                    engine = batch.shared_engine(system, bound)
                    args_out["cold"] = engine.memo_size == 0
                    result = original(system, bound, *args, **kwargs)
                except Exception:
                    rec.count("sim.batch.failed")
                    raise
            rec.count("sim.batch.memo_transitions", engine.memo_size)
            return result

        return [
            (batch, "batch_monte_carlo_latency", traced_batch),
        ]

    def layer_metrics(self, rec, outputs: list) -> dict:
        counters = rec.counters
        answered = counters.get("analysis.exact.answered", 0)
        refused = counters.get("analysis.exact.refused", 0)
        widths = [
            int(key.split(":")[1])
            for key in counters
            if key.startswith("analysis.exact.cut_width:")
        ]
        cold_s = sum(
            event["dur"] / 1e6
            for event in rec.events
            if event["name"] == "sim.batch" and event["args"].get("cold")
        )
        return {
            "analysis.exact.busy_s": rec.self_time.get("analysis.exact", 0.0),
            "analysis.exact.dp_states": counters.get(
                "analysis.exact.dp_states", 0
            ),
            "analysis.exact.max_cut_width": max(widths, default=0),
            "analysis.exact.answered_share": (
                answered / (answered + refused) if answered + refused else 0.0
            ),
            "sim.batch.busy_s": rec.self_time.get("sim.batch", 0.0),
            "sim.batch.cold_s": cold_s,
            "sim.batch.memo_transitions": counters.get(
                "sim.batch.memo_transitions", 0
            ),
            "sim.batch.failed": counters.get("sim.batch.failed", 0),
        }

    def probes(self, rec) -> None:
        """Re-measure the batch engine's known defects.

        ``shared_engine`` keys engines weakly on the system, but each
        engine holds its system strongly, so every call on a fresh
        system leaves one engine behind; and on designs with 9 or more
        units the batch statistics differ from the scalar simulator's.
        """
        import gc

        from repro.sim.batch import BatchSimulator

        def alive() -> int:
            gc.collect()
            return sum(isinstance(o, BatchSimulator) for o in gc.get_objects())

        before = alive()
        res = self.designs[0][1]
        for _ in range(4):
            res.monte_carlo_latency(MARKOV_SPEC, trials=100, seed=self.seed)
        rec.count("sim.batch.retained_engines", alive() - before)

        # the known batch-vs-scalar disagreement (see reference.json)
        from repro.benchmarks.registry import benchmark
        from repro.experiments.common import synthesize_entry

        (name,) = (
            entry["design"]
            for entry in reference()["known_failures"]
            if entry.get("probe") == "sim.batch.scalar_mismatches"
        )
        res = synthesize_entry(benchmark(name))
        batch, scalar = (
            res.monte_carlo_latency(0.7, trials=200, seed=3, engine=engine)
            for engine in ("batch", "scalar")
        )
        rec.count("sim.batch.scalar_mismatches", int(batch != scalar))


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class CampaignWorkload(Workload):
    """Journaled fault campaigns and Monte-Carlo sweeps on a 2-worker pool."""

    name = "campaign"
    stream = 4
    admit = staticmethod(size_limit(16))
    fault_trials = 20
    mc_trials = 50
    workers = 2

    def setup(self) -> None:
        from repro.benchmarks.registry import benchmark, core_benchmark_names
        from repro.experiments.common import synthesize_entry

        drawn, excluded = draw_design_names(
            self.seed, self.stream, self.admit
        )
        self.info = {"stream": len(drawn), "excluded_draws": excluded}
        names = list(core_benchmark_names()) + drawn
        self.designs = [
            (name, synthesize_entry(benchmark(name))) for name in names
        ]
        self.ops = []
        for index, (name, res) in enumerate(self.designs):
            self.ops.append(
                Op(
                    f"{name}|campaign",
                    functools.partial(self._campaign, 2 * index, name, res),
                )
            )
            self.ops.append(
                Op(
                    f"{name}|mc",
                    functools.partial(self._monte_carlo, 2 * index + 1, res),
                )
            )
        self.journal_class = None
        self.journals: list = []
        self.workers_now = self.workers
        #: the pool's amortization decisions, one row per cold pass
        self.decisions: list[list[str]] = []

    def begin_pass(self) -> None:
        self.pass_dir = self.fresh_pass_dir()
        self.reports_by_op: dict[int, object] = {}

    def end_pass(self) -> None:
        if self.workers_now > 1:
            self.decisions.append(self.pass_decisions())

    def _journal(self, index):
        from repro.runtime.journal import CheckpointJournal

        path = os.path.join(self.pass_dir, f"op{index}")
        journal = (self.journal_class or CheckpointJournal)(path)
        if self.journal_class is not None:
            self.journals.append(journal)
        return journal

    def _report_for(self, index):
        from repro.runtime.policy import RunReport

        report = RunReport()
        self.reports_by_op[index] = report
        return report

    def _campaign(self, index, name, res):
        from repro.faults.campaign import run_campaign

        with self.rec.span("faults", design=name):
            return run_campaign(
                res,
                trials=self.fault_trials,
                seed=0,
                p=0.7,
                benchmark=name,
                workers=self.workers_now,
                checkpoint=self._journal(index),
                report=self._report_for(index),
            )

    def _monte_carlo(self, index, res):
        with self.rec.span("sim.runner"):
            return res.monte_carlo_latency(
                0.7,
                trials=self.mc_trials,
                seed=0,
                workers=self.workers_now,
                checkpoint=self._journal(index),
                report=self._report_for(index),
            )

    def pass_decisions(self) -> list[str]:
        """The pool's amortization decision per op of the last pass."""
        out = []
        for index in range(len(self.ops)):
            report = self.reports_by_op.get(index)
            events = [
                e.detail for e in (report.events if report else ())
                if e.kind == "parallel-amortization"
            ]
            out.append(
                ",".join(
                    "serial" if "running serially" in d else "pool"
                    for d in events
                )
            )
        return out

    def begin_replay(self) -> bool:
        self.workers_now = self.workers
        return True

    def canonical(self, output):
        if hasattr(output, "to_json"):
            return output.to_json()
        return repr(output)

    def check(self, outputs: list) -> list[tuple[str, str]]:
        from repro.errors import InjectedFaultEscape

        failures = []
        for op, output in returned(self.ops, outputs):
            if op.label.endswith("|campaign"):
                try:
                    output.check_no_escapes()
                except InjectedFaultEscape:
                    failures.append((op.label, "no-escapes"))
        return failures

    def extras(self, outputs, op_seconds) -> dict:
        trials = self.fault_trials * 2 + self.mc_trials
        return {
            "trials_per_s": (
                len(self.designs) * trials / sum(op_seconds),
                "1/s",
            ),
        }

    def trace_patches(self, rec) -> list:
        import repro.faults.campaign as campaign
        import repro.perf.engine as engine
        import repro.sim.runner as runner
        from repro.runtime.journal import CheckpointJournal

        class TracedJournal(CheckpointJournal):
            get = rec.wrap("runtime.journal.get", CheckpointJournal.get)
            put = rec.wrap("runtime.journal.put", CheckpointJournal.put)

        self.journal_class = TracedJournal

        def cycles(result, *args, **kwargs):
            rec.count("sim.simulate.cycles", result.cycles)

        simulate = rec.wrap("sim.simulate", campaign.simulate, after=cycles)
        return [
            (campaign, "simulate", simulate),
            (runner, "simulate", simulate),
            (engine, "parallel_map",
             rec.wrap("perf.pool", engine.parallel_map)),
        ]

    def layer_metrics(self, rec, outputs: list) -> dict:
        outcomes = {"detected": 0, "tolerated": 0, "silent": 0}
        for output in outputs:
            for record in getattr(output, "records", ()):
                outcomes[record.outcome] += 1
        total = sum(outcomes.values())
        decisions = self.decisions[-1]  # the traced pass
        journals = self.journals
        return {
            "sim.simulate.busy_s": rec.self_time.get("sim.simulate", 0.0),
            "sim.simulate.cycles": rec.counters.get("sim.simulate.cycles", 0),
            "faults.busy_s": rec.self_time.get("faults", 0.0),
            "faults.detected_share": (
                outcomes["detected"] / total if total else 0.0
            ),
            "faults.silent": outcomes["silent"],
            "runtime.journal.put_s": rec.self_time.get(
                "runtime.journal.put", 0.0
            ),
            "runtime.journal.get_s": rec.self_time.get(
                "runtime.journal.get", 0.0
            ),
            "runtime.journal.new_shards": sum(j.new_shards for j in journals),
            "runtime.journal.replayed": sum(j.replayed for j in journals),
            "runtime.journal.quarantined": sum(
                j.quarantined for j in journals
            ),
            "perf.pool.wait_s": rec.self_time.get("perf.pool", 0.0),
            "perf.pool.serial_decisions": sum(
                d.count("serial") for d in decisions
            ),
            "perf.pool.pool_decisions": sum(
                d.count("pool") for d in decisions
            ),
        }


# ----------------------------------------------------------------------
# area
# ----------------------------------------------------------------------
class AreaWorkload(Workload):
    """Exact two-level area of controllers, as Table 1 reports it.

    One op is one ``fsm_area(fsm, "binary")`` call.  The FSMs are the
    controllers of the ten fixed designs whose encoded input (state
    bits plus inputs) is at most ``max_width`` bits: every CENT-SYNC
    and DIST controller that fits, and the CENT FSMs of
    ``CENT_DESIGNS``, the only fixed designs whose CENT FSM fits.  That
    covers five of Table 1's six rows.  Table 1's CENT FSM (11 bits)
    stays out: its one call takes 16-25 s, longer than a run's window,
    so no run could take an op's median over several passes.
    """

    name = "area"
    max_width = 8
    #: fixed designs whose CENT FSM is at most ``max_width`` bits wide;
    #: building the others' CENT FSMs costs up to 4 s of set-up each
    CENT_DESIGNS = ("fir3", "fig2", "ewf")

    def setup(self) -> None:
        from repro.benchmarks.registry import core_benchmark_names
        from repro.experiments.common import synthesize_benchmark
        from repro.fsm.encode import encode

        self.results = {}
        self.ops = []
        for name in core_benchmark_names():
            result = synthesize_benchmark(name)
            self.results[name] = result
            fsms = [result.cent_sync_fsm]
            fsms.extend(result.distributed.controllers.values())
            if name in self.CENT_DESIGNS:
                fsms.insert(0, result.cent_fsm)
            for fsm in fsms:
                width = encode(fsm, "binary").width + len(fsm.inputs)
                if width <= self.max_width:
                    self.ops.append(
                        Op(
                            f"{name}|{fsm.name}",
                            functools.partial(self._area, fsm),
                        )
                    )

    def _area(self, fsm):
        from repro.fsm.area import fsm_area

        with self.rec.span("fsm.area", fsm=fsm.name):
            return fsm_area(fsm, "binary")

    def canonical(self, output):
        return repr(output)

    def check(self, outputs: list) -> list[tuple[str, str]]:
        """Table 1's rows, as far as a run computes them.

        The five rows the ops compute equal EXPERIMENTS.md's measured
        Table 1.  Of the CENT row, everything but the combinational
        literals (a 16-25 s minimization) is checked, and so are the two
        claims of ``Table1Result.check_shape`` that do not need them.
        """
        from repro.fsm.encode import encode
        from repro.logic.area import AREA_PER_FLIP_FLOP

        found = dict(
            (op.label, report) for op, report in returned(self.ops, outputs)
        )
        result = self.results["diffeq"]
        rows = {row["name"]: row for row in reference()["table1_measured"]
                ["rows"]}
        failures = []
        for name, row in rows.items():
            label = f"diffeq|{name}"
            if name == "CENT-FSM":
                fsm = result.cent_fsm
                ffs = encode(fsm, "binary").num_flip_flops
                got = {
                    "io": f"{len(fsm.inputs)}/{len(fsm.outputs)}",
                    "states": fsm.num_states,
                    "ffs": ffs,
                    "seq": ffs * AREA_PER_FLIP_FLOP,
                }
                if got != {key: row[key] for key in got}:
                    failures.append((label, "table1-row"))
                continue
            report = found.get(label)
            if report is None:
                if label not in {op.label for op in self.ops}:
                    # the controller grew past ``max_width``
                    failures.append((label, "table1-row-not-an-op"))
                continue  # an op that raised is already counted
            got = {
                "name": report.name,
                "io": report.io_column(),
                "states": report.num_states,
                "ffs": report.num_flip_flops,
                "comb": report.combinational_area,
                "seq": report.sequential_area,
            }
            if got != row:
                failures.append((label, "table1-row"))
        cent_sync = found.get("diffeq|CENT-SYNC-FSM")
        dist = result.distributed.total_area("binary")
        if cent_sync is not None and not (
            cent_sync.total_area < dist.total_area
        ):
            failures.append(("diffeq|CENT-SYNC-FSM", "table1-shape"))
        if not result.cent_fsm.num_states > dist.num_states:
            failures.append(("diffeq|CENT-SYNC-FSM", "table1-shape"))
        return failures

    def extras(self, outputs, op_seconds) -> dict:
        literals = sum(report.combinational_area for report in outputs)
        return {"area_literals": (literals, "count")}

    def trace_patches(self, rec) -> list:
        import repro.fsm.area as fsm_area
        import repro.logic.area as logic_area
        import repro.logic.quine_mccluskey as qm

        def primes(result, *args, **kwargs):
            rec.count("logic.primes.count", len(result))

        return [
            (fsm_area, "encode", rec.wrap("fsm.encode", fsm_area.encode)),
            (logic_area, "minimize",
             rec.wrap("logic.minimize", logic_area.minimize)),
            (qm, "prime_implicants",
             rec.wrap("logic.primes", qm.prime_implicants, after=primes)),
        ]

    def layer_metrics(self, rec, outputs: list) -> dict:
        return {
            "fsm.area.busy_s": rec.self_time.get("fsm.area", 0.0),
            "fsm.encode.busy_s": rec.self_time.get("fsm.encode", 0.0),
            "logic.primes.busy_s": rec.self_time.get("logic.primes", 0.0),
            # minimize's own time, net of prime generation, is the cover
            "logic.cover.busy_s": rec.self_time.get("logic.minimize", 0.0),
            "logic.minimize.calls": rec.calls.get("logic.minimize", 0),
            "logic.primes.count": rec.counters.get("logic.primes.count", 0),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (CompileWorkload, LatencyWorkload, CampaignWorkload,
                AreaWorkload)
}
