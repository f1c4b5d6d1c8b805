"""Command-line interface: ``python -m repro <command>``.

Gives the library's main flows a shell-level surface::

    python -m repro benchmarks
    python -m repro synthesize diffeq
    python -m repro synthesize fir5 --allocation "mul:3T,add:2" --verilog out.v
    python -m repro simulate fir5 --p 0.7 --trace --vcd fir5.vcd
    python -m repro simulate fir5 --completion per-unit:mul=0.9,*=0.5
    python -m repro simulate "gen:ops=20,depth=5,seed=2" --completion markov:0.7,0.5
    python -m repro faults diffeq --trials 100 --seed 0 -j 4
    python -m repro faults diffeq --checkpoint-dir ckpt --retries 3
    python -m repro resume ckpt
    python -m repro table1
    python -m repro table2
    python -m repro distribution fir5 --p 0.7
    python -m repro experiments multilevel physical -j 4
    python -m repro bench --quick -o BENCH_core.json
    python -m repro pipeline --list
    python -m repro pipeline diffeq --cache-dir .repro-cache --manifest m.json
    python -m repro lint
    python -m repro lint fig2 fdct --format json -o lint.json
    python -m repro lint --write-baseline
    python -m repro lint --check-baseline --fail-on warning
    python -m repro lint --jobs 4
    python -m repro check
    python -m repro check fir5 diffeq --format json -o check.json
    python -m repro check --check-baseline --jobs 4
    python -m repro check fir5 --max-states 50000

Long-running commands (``faults``, ``experiments``, ``bench``,
``table2``) accept ``--checkpoint-dir DIR``: completed trials are
journaled there and a ``manifest.json`` records the invocation, so an
interrupted run picks up where it left off with ``repro resume DIR`` —
producing output byte-identical to an uninterrupted run.  Every command
runs under an ambient :class:`~repro.runtime.policy.RunReport`;
recoveries (worker crashes survived, corrupt cache entries quarantined,
retries) are summarized on stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .analysis.distribution import compare_distributions
from .api import synthesize
from .benchmarks.registry import all_benchmarks, benchmark
from .control.verilog_top import distributed_to_verilog
from .core.dot import dfg_to_dot
from .errors import ReproError
from .pipeline.registry import (
    BINDERS,
    CONTROLLER_BACKENDS,
    ORDER_OBJECTIVES,
    SCHEDULERS,
)
from .resources.allocation import ResourceAllocation
from .resources.spec import (
    BernoulliSpec,
    CompletionSpec,
    parse_completion_spec,
)
from .sim.simulator import simulate
from .sim.vcd import trace_to_vcd
from .verify.baseline import (
    DEFAULT_BASELINE_DIR,
    DEFAULT_CHECK_BASELINE_DIR,
)


#: name of the invocation record ``--checkpoint-dir`` writes
RESUME_MANIFEST = "manifest.json"


def _policy_from_args(args) -> "object | None":
    """Build a :class:`~repro.runtime.policy.RunPolicy` from CLI flags.

    Returns ``None`` (no supervision) unless at least one policy flag
    was given — the unsupervised pool stays the zero-overhead default.
    """
    timeout = getattr(args, "timeout", None)
    retries = getattr(args, "retries", None)
    on_failure = getattr(args, "on_failure", None)
    if timeout is None and retries is None and on_failure is None:
        return None
    from .runtime.policy import RunPolicy

    return RunPolicy(
        timeout_s=timeout,
        max_retries=retries if retries is not None else 2,
        on_failure=on_failure if on_failure is not None else "retry",
    )


def _write_resume_manifest(checkpoint_dir: str, argv: "Sequence[str]"):
    """Record the invocation so ``repro resume`` can replay it."""
    import json
    import os

    from .runtime.journal import atomic_write_text

    os.makedirs(checkpoint_dir, exist_ok=True)
    atomic_write_text(
        os.path.join(checkpoint_dir, RESUME_MANIFEST),
        json.dumps(
            {"schema": 1, "argv": list(argv)},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )


def _completion_from_args(args) -> CompletionSpec:
    """The completion spec a command was invoked with.

    ``--completion`` (full spec grammar) wins over the legacy ``--p``
    float, which keeps denoting a plain Bernoulli model.
    """
    completion = getattr(args, "completion", None)
    if completion:
        return parse_completion_spec(completion)
    return BernoulliSpec(args.p)


def _benchmark_design(args) -> "tuple":
    entry = benchmark(args.benchmark)
    allocation = (
        ResourceAllocation.parse(args.allocation)
        if args.allocation
        else entry.allocation()
    )
    return entry, allocation


def _synthesize_from_args(args) -> "tuple":
    entry, allocation = _benchmark_design(args)
    return entry, synthesize(entry.dfg(), allocation, scheduler=args.scheduler)


def _cmd_benchmarks(args) -> int:
    from .analysis.tables import render_table
    from .core.analysis import profile

    rows = []
    for entry in all_benchmarks():
        prof = profile(entry.dfg())
        mix = ", ".join(f"{c}:{n}" for c, n in prof.ops_by_class)
        rows.append(
            [
                entry.name,
                entry.title,
                str(prof.num_ops),
                mix,
                entry.allocation_spec,
            ]
        )
    print(
        render_table(
            ["name", "title", "ops", "mix", "paper allocation"], rows
        )
    )
    return 0


def _cmd_synthesize(args) -> int:
    __, result = _synthesize_from_args(args)
    print(result.dfg.summary())
    print()
    print(result.schedule.describe())
    print()
    print(result.bound.describe())
    print()
    print(result.distributed.describe())
    comparison = result.latency_comparison()
    print()
    print(f"CENT-SYNC latency: {comparison.sync.bracket_ns()}")
    print(f"DIST      latency: {comparison.dist.bracket_ns()}")
    print(f"enhancement      : {comparison.enhancement_column()}")
    if args.verilog:
        text = distributed_to_verilog(
            result.distributed, top_name=f"{result.dfg.name}_control"
        )
        with open(args.verilog, "w") as handle:
            handle.write(text)
        print(f"\nwrote Verilog to {args.verilog}")
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(
                dfg_to_dot(
                    result.dfg,
                    schedule_arcs=result.order.schedule_arcs,
                    binding=result.bound.binding,
                )
            )
        print(f"wrote DOT to {args.dot}")
    return 0


def _cmd_simulate(args) -> int:
    __, result = _synthesize_from_args(args)
    spec = _completion_from_args(args)
    sim = simulate(
        result.distributed_system(),
        result.bound,
        spec.model(),
        seed=args.seed,
        iterations=args.iterations,
        record_trace=args.trace or bool(args.vcd),
    )
    print(
        f"{result.dfg.name}: {sim.cycles} cycles = {sim.latency_ns:.0f} ns "
        f"at {spec.describe()} (seed {args.seed})"
    )
    if args.iterations > 1:
        print(
            f"steady-state throughput: "
            f"{sim.throughput_cycles():.2f} cycles/iteration "
            f"({sim.token_overruns} token overruns)"
        )
    if args.utilization:
        from .analysis.utilization import utilization_report

        print()
        print(utilization_report(result.bound, sim).render())
    if args.trace:
        print()
        print(sim.trace.render())
    if args.vcd:
        with open(args.vcd, "w") as handle:
            handle.write(trace_to_vcd(sim, design_name=result.dfg.name))
        print(f"wrote VCD to {args.vcd}")
    return 0


def _cmd_faults(args) -> int:
    from .faults.campaign import run_campaign

    entry, result = _synthesize_from_args(args)
    styles = (
        ("dist", "cent-sync") if args.style == "both" else (args.style,)
    )
    report = run_campaign(
        result,
        trials=args.trials,
        seed=args.seed,
        p=_completion_from_args(args),
        styles=styles,
        benchmark=entry.name,
        workers=args.workers,
        policy=_policy_from_args(args),
        checkpoint=args.checkpoint_dir,
    )
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"\nwrote JSON coverage report to {args.json}")
    if args.strict:
        report.check_no_escapes()
    return 0


def _cmd_table1(args) -> int:
    from .experiments.table1 import run_table1

    result = run_table1(args.benchmark)
    print(result.render())
    result.check_shape()
    return 0


def _cmd_table2(args) -> int:
    from .experiments.table2 import run_table2

    result = run_table2(
        workers=args.workers,
        checkpoint=args.checkpoint_dir,
    )
    print(result.render())
    result.check_shape()
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import generate_report

    text = generate_report(include_table1=not args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


#: keyword arguments the parallel experiment drivers accept beyond
#: their defaults (see ``_cmd_experiments``)
_PARALLEL_KWARGS = frozenset({"workers", "policy", "checkpoint"})

#: experiment drivers runnable via ``repro experiments``, mapping name
#: to (module, function, extra kwargs the driver accepts)
_EXPERIMENT_DRIVERS = {
    "psweep": ("repro.experiments.ablations", "run_psweep", frozenset()),
    "sdld": ("repro.experiments.ablations", "run_sdld_sweep", frozenset()),
    "opdist": ("repro.experiments.ablations", "run_opdist", frozenset()),
    "pipeline": (
        "repro.experiments.ablations", "run_pipeline", frozenset()
    ),
    "csg": ("repro.experiments.ablations", "run_csg_sweep", frozenset()),
    "multilevel": (
        "repro.experiments.ablations", "run_multilevel", _PARALLEL_KWARGS
    ),
    "physical": (
        "repro.experiments.ablations", "run_physical", _PARALLEL_KWARGS
    ),
    "encoding": (
        "repro.experiments.ablations", "run_encoding_ablation", frozenset()
    ),
    "communication": (
        "repro.experiments.ablations",
        "run_communication_binding",
        frozenset(),
    ),
    "activity": ("repro.experiments.ablations", "run_activity", frozenset()),
    "completion": (
        "repro.experiments.ablations",
        "run_completion_models",
        frozenset(),
    ),
    "fig4": ("repro.experiments.figures", "run_fig4", _PARALLEL_KWARGS),
}


def _cmd_experiments(args) -> int:
    import importlib

    from .pipeline.manager import set_default_synthesis_cache

    cache = None
    if args.cache_dir:
        from .perf.cache import SynthesisCache

        cache = SynthesisCache(args.cache_dir)
    names = args.experiments or sorted(_EXPERIMENT_DRIVERS)
    for name in names:
        if name not in _EXPERIMENT_DRIVERS:
            known = ", ".join(sorted(_EXPERIMENT_DRIVERS))
            print(
                f"error: unknown experiment {name!r}; choose from {known}",
                file=sys.stderr,
            )
            return 1
    available = {
        "workers": args.workers,
        "policy": _policy_from_args(args),
        "checkpoint": args.checkpoint_dir,
    }
    previous = (
        set_default_synthesis_cache(cache) if cache is not None else None
    )
    try:
        first = True
        for name in names:
            module_name, func_name, accepts = _EXPERIMENT_DRIVERS[name]
            runner = getattr(importlib.import_module(module_name), func_name)
            kwargs = {k: available[k] for k in accepts}
            if not first:
                print()
            first = False
            print(runner(**kwargs).render())
    finally:
        if cache is not None:
            set_default_synthesis_cache(previous)
    return 0


def _cmd_bench(args) -> int:
    from .perf.bench import (
        CORE_BENCHMARKS,
        compare_bench,
        compare_bench_files,
        run_bench,
    )

    if args.compare and args.compare_to:
        # pure file diff: no bench run
        comparison = compare_bench_files(
            args.compare, args.compare_to, threshold=args.threshold
        )
        print(comparison.render())
        return 0 if comparison.ok else 1
    report = run_bench(
        benchmarks=(
            tuple(args.benchmarks) if args.benchmarks else CORE_BENCHMARKS
        ),
        quick=args.quick,
        trials=args.trials,
        workers=args.workers,
        seed=args.seed,
        p=_completion_from_args(args),
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(report.render())
    if args.output:
        report.write(args.output)
        print(f"\nwrote benchmark report to {args.output}")
    if args.compare:
        import json as json_module

        with open(args.compare) as handle:
            baseline = json_module.load(handle)
        comparison = compare_bench(
            baseline, report.data, threshold=args.threshold
        )
        print()
        print(comparison.render())
        return 0 if comparison.ok else 1
    return 0


def _cmd_distribution(args) -> int:
    __, result = _synthesize_from_args(args)
    comparison = compare_distributions(
        result.bound, result.taubm, p=_completion_from_args(args)
    )
    print(comparison.render())
    return 0


def _cmd_pipeline(args) -> int:
    from .analysis.tables import render_table
    from .perf.cache import SynthesisCache
    from .pipeline import run_synthesis_pipeline, synthesis_passes

    if args.list:
        rows = [
            [
                p.name,
                ", ".join(p.requires) or "-",
                ", ".join(p.provides) or "-",
                "yes" if p.cacheable else "no",
                p.summary,
            ]
            for p in synthesis_passes()
        ]
        print(
            render_table(
                ["pass", "requires", "provides", "cached", "summary"], rows
            )
        )
        print()
        reg_rows = [
            [registry.kind, entry.name, entry.summary]
            for registry in (
                SCHEDULERS,
                ORDER_OBJECTIVES,
                BINDERS,
                CONTROLLER_BACKENDS,
            )
            for entry in registry
        ]
        print(render_table(["registry", "name", "summary"], reg_rows))
        return 0
    if not args.benchmark:
        print(
            "error: a benchmark name is required unless --list is given",
            file=sys.stderr,
        )
        return 2
    entry, allocation = _benchmark_design(args)
    cache = SynthesisCache(args.cache_dir) if args.cache_dir else None
    manifest = run_synthesis_pipeline(
        entry.dfg(),
        allocation,
        scheduler=args.scheduler,
        objective=args.objective,
        upto=args.to,
        cache=cache,
    )[1]
    print(manifest.render())
    if args.manifest:
        with open(args.manifest, "w") as handle:
            handle.write(manifest.to_json(timing=True))
            handle.write("\n")
        print(f"wrote manifest to {args.manifest}")
    if args.assert_all_cached and not manifest.all_cached():
        print(
            "error: expected every cacheable pass to be served from "
            "cache, got " + manifest.cache_summary(),
            file=sys.stderr,
        )
        return 1
    return 0


def _lint_worker(item):
    """Module-level lint worker: (name, allocation, scheduler) → report.

    Must stay importable so ``--jobs`` can pickle it onto the process
    pool; :func:`~repro.perf.engine.parallel_map` preserves item order,
    keeping the combined output byte-identical to a serial run.
    """
    name, allocation, scheduler = item
    from .verify import lint_benchmark

    return lint_benchmark(name, allocation=allocation, scheduler=scheduler)


def _check_worker(item):
    """Module-level model-check worker for ``repro check --jobs``."""
    name, allocation, scheduler, max_states, max_frontier = item
    from .verify.modelcheck import check_benchmark

    return check_benchmark(
        name,
        allocation=allocation,
        scheduler=scheduler,
        max_states=max_states,
        max_frontier=max_frontier,
    )


def _cmd_lint(args) -> int:
    import dataclasses
    import json

    from .perf.engine import parallel_map
    from .verify import (
        gate_report,
        load_baseline,
        write_baseline,
    )
    from .verify.baseline import baseline_path

    names = list(args.benchmarks) or [
        entry.name for entry in all_benchmarks()
    ]
    if args.allocation and len(names) != 1:
        print(
            "error: --allocation requires exactly one benchmark",
            file=sys.stderr,
        )
        return 2
    reports = parallel_map(
        _lint_worker,
        [(name, args.allocation, args.scheduler) for name in names],
        workers=args.jobs,
    )
    if args.write_baseline:
        for report in reports:
            path = write_baseline(args.baseline_dir, report)
            print(f"wrote baseline {path}", file=sys.stderr)
    gates = []
    for report in reports:
        baseline = load_baseline(args.baseline_dir, report.design)
        gate = gate_report(report, baseline, fail_on=args.fail_on)
        if args.check_baseline:
            path = baseline_path(args.baseline_dir, report.design)
            stable = (
                path.is_file()
                and path.read_text(encoding="utf-8")
                == report.to_json() + "\n"
            )
            gate = dataclasses.replace(gate, byte_stable=stable)
        gates.append(gate)
    if args.format == "json":
        out = (
            json.dumps(
                {
                    "format": 1,
                    "reports": [r.to_dict() for r in reports],
                },
                indent=2,
                sort_keys=True,
                separators=(",", ": "),
            )
            + "\n"
        )
    else:
        parts = []
        for report, gate in zip(reports, gates):
            parts.append(report.render())
            parts.append(gate.render())
        out = "\n".join(parts) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(out)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(out, end="")
    failed = [g for g in gates if not g.passed]
    for gate in failed:
        if args.format == "json" or args.output:
            print(gate.render(), file=sys.stderr)
    return 1 if failed else 0


def _cmd_check(args) -> int:
    import dataclasses
    import json

    from .perf.engine import parallel_map
    from .verify import (
        gate_report,
        load_baseline,
        write_baseline,
    )
    from .verify.baseline import baseline_path

    names = list(args.benchmarks) or [
        entry.name for entry in all_benchmarks()
    ]
    if args.allocation and len(names) != 1:
        print(
            "error: --allocation requires exactly one benchmark",
            file=sys.stderr,
        )
        return 2
    results = parallel_map(
        _check_worker,
        [
            (
                name,
                args.allocation,
                args.scheduler,
                args.max_states,
                args.max_frontier,
            )
            for name in names
        ],
        workers=args.jobs,
    )
    reports = [result.report for result in results]
    if args.write_baseline:
        for report in reports:
            path = write_baseline(args.baseline_dir, report)
            print(f"wrote baseline {path}", file=sys.stderr)
    gates = []
    for report in reports:
        baseline = load_baseline(args.baseline_dir, report.design)
        gate = gate_report(report, baseline, fail_on=args.fail_on)
        if args.check_baseline:
            path = baseline_path(args.baseline_dir, report.design)
            stable = (
                path.is_file()
                and path.read_text(encoding="utf-8")
                == report.to_json() + "\n"
            )
            gate = dataclasses.replace(gate, byte_stable=stable)
        gates.append(gate)
    if args.format == "json":
        out = (
            json.dumps(
                {
                    "format": 1,
                    "reports": [
                        {
                            "design": result.design,
                            "states": result.states,
                            "transitions": result.transitions,
                            "accepting": result.accepting,
                            "max_depth": result.max_depth,
                            "report": result.report.to_dict(),
                            "counterexamples": [
                                cex.to_dict()
                                for cex in result.counterexamples
                            ],
                        }
                        for result in results
                    ],
                },
                indent=2,
                sort_keys=True,
                separators=(",", ": "),
            )
            + "\n"
        )
    else:
        parts = []
        for result, gate in zip(results, gates):
            parts.append(result.render())
            parts.append(gate.render())
        out = "\n".join(parts) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(out)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(out, end="")
    failed = [g for g in gates if not g.passed]
    for gate in failed:
        if args.format == "json" or args.output:
            print(gate.render(), file=sys.stderr)
    return 1 if failed else 0


def _warn_quarantined_shards(checkpoint_dir: str) -> None:
    """Summarize quarantined shard files before a resume replays."""
    from .runtime.journal import CheckpointJournal

    corrupt = len(CheckpointJournal(checkpoint_dir).corrupt_files())
    if corrupt:
        print(
            f"note: {corrupt} quarantined shard file(s) in "
            f"{checkpoint_dir}; they will be recomputed",
            file=sys.stderr,
        )


def _cmd_resume(args) -> int:
    import json
    import os

    manifest_path = os.path.join(args.checkpoint, RESUME_MANIFEST)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot read resume manifest {manifest_path!r}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 1
    argv = manifest.get("argv")
    if not (
        isinstance(argv, list)
        and argv
        and all(isinstance(item, str) for item in argv)
    ):
        print(
            f"error: {manifest_path!r} does not record a resumable "
            f"invocation",
            file=sys.stderr,
        )
        return 1
    print("resuming: repro " + " ".join(argv), file=sys.stderr)
    _warn_quarantined_shards(args.checkpoint)
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed synchronous control units for dataflow graphs "
            "under allocation of telescopic arithmetic units (DATE 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "benchmarks", help="list the registered benchmark DFGs"
    ).set_defaults(func=_cmd_benchmarks)

    def add_workers_arg(p):
        p.add_argument(
            "-j",
            "--workers",
            type=int,
            default=1,
            help=(
                "parallel worker processes (1 = serial, 0 = auto); "
                "results are identical for any value"
            ),
        )

    def add_checkpoint_arg(p):
        p.add_argument(
            "--checkpoint-dir",
            metavar="DIR",
            help=(
                "journal completed trials in DIR; an interrupted run "
                "continues with 'repro resume DIR', byte-identically"
            ),
        )

    def add_policy_args(p):
        from .runtime.policy import ON_FAILURE_CHOICES

        p.add_argument(
            "--timeout",
            type=float,
            metavar="SECONDS",
            help=(
                "per-trial timeout; hung workers are abandoned and "
                "their trials re-run in-process (enables supervision)"
            ),
        )
        p.add_argument(
            "--retries",
            type=int,
            metavar="N",
            help=(
                "pool re-submissions per failing trial, with "
                "deterministic backoff (enables supervision; default 2)"
            ),
        )
        p.add_argument(
            "--on-failure",
            choices=ON_FAILURE_CHOICES,
            help=(
                "once retries are exhausted: keep raising, run the "
                "trial in-process, skip it, or fail fast "
                "(enables supervision; default: retry)"
            ),
        )

    def add_completion_arg(p, default_p=0.7):
        p.add_argument(
            "--p",
            type=float,
            default=default_p,
            help=(
                "Bernoulli fast probability "
                f"(default: {default_p}; see also --completion)"
            ),
        )
        p.add_argument(
            "--completion",
            metavar="SPEC",
            help=(
                "completion-model spec, overriding --p: 'bernoulli:P', "
                "'per-unit:UNIT=P,...' (unit name, class, or '*' "
                "default), or 'markov:P_FAST,STICKINESS'"
            ),
        )

    def add_design_args(p):
        p.add_argument("benchmark", help="registered benchmark name")
        p.add_argument(
            "--allocation",
            help='allocation spec, e.g. "mul:2T,add:1" (default: paper)',
        )
        p.add_argument(
            "--scheduler",
            choices=SCHEDULERS.names(),
            default="list",
            help="time-step scheduler from the registry (default: list)",
        )

    p_syn = sub.add_parser(
        "synthesize", help="run the full flow and print every artifact"
    )
    add_design_args(p_syn)
    p_syn.add_argument("--verilog", help="write controller Verilog here")
    p_syn.add_argument("--dot", help="write the bound DFG as DOT here")
    p_syn.set_defaults(func=_cmd_synthesize)

    p_sim = sub.add_parser(
        "simulate", help="cycle-accurate simulation of the distributed unit"
    )
    add_design_args(p_sim)
    add_completion_arg(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--iterations", type=int, default=1)
    p_sim.add_argument(
        "--trace", action="store_true", help="print the cycle trace"
    )
    p_sim.add_argument(
        "--utilization",
        action="store_true",
        help="print per-unit utilization",
    )
    p_sim.add_argument("--vcd", help="write a VCD waveform here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_flt = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign with coverage report",
    )
    add_design_args(p_flt)
    p_flt.add_argument(
        "--trials", type=int, default=100, help="faults per style"
    )
    p_flt.add_argument("--seed", type=int, default=0)
    add_completion_arg(p_flt)
    p_flt.add_argument(
        "--style",
        choices=("dist", "cent-sync", "both"),
        default="both",
        help="controller style(s) to attack (default: both)",
    )
    p_flt.add_argument("--json", help="write the JSON coverage report here")
    p_flt.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on any silent corruption escape",
    )
    add_workers_arg(p_flt)
    add_checkpoint_arg(p_flt)
    add_policy_args(p_flt)
    p_flt.set_defaults(func=_cmd_faults)

    p_t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p_t1.add_argument("benchmark", nargs="?", default="diffeq")
    p_t1.set_defaults(func=_cmd_table1)

    p_t2 = sub.add_parser("table2", help="regenerate the paper's Table 2")
    add_workers_arg(p_t2)
    add_checkpoint_arg(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_rep = sub.add_parser(
        "report", help="run every experiment and emit a markdown report"
    )
    p_rep.add_argument("-o", "--output", help="write the report here")
    p_rep.add_argument(
        "--quick",
        action="store_true",
        help="skip the expensive CENT product minimization (Table 1)",
    )
    p_rep.set_defaults(func=_cmd_report)

    p_dist = sub.add_parser(
        "distribution", help="exact latency distributions (DIST vs SYNC)"
    )
    add_design_args(p_dist)
    add_completion_arg(p_dist)
    p_dist.set_defaults(func=_cmd_distribution)

    p_exp = sub.add_parser(
        "experiments",
        help="run extension experiments (ablations/sweeps) by name",
    )
    p_exp.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=(
            "experiment names (default: all): "
            + ", ".join(sorted(_EXPERIMENT_DRIVERS))
        ),
    )
    add_workers_arg(p_exp)
    add_checkpoint_arg(p_exp)
    add_policy_args(p_exp)
    p_exp.add_argument(
        "--cache-dir",
        help=(
            "directory for the synthesis-artifact cache shared by every "
            "design the experiments construct"
        ),
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_bench = sub.add_parser(
        "bench",
        help="time the core flows and persist the perf trajectory",
    )
    p_bench.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        default=None,
        help=(
            "registered benchmark names, including generated "
            "'gen:...' families (default: all ten fixed designs)"
        ),
    )
    p_bench.add_argument(
        "--compare",
        metavar="OLD.json",
        help=(
            "diff this run (or --compare-to) against a baseline "
            "BENCH_core.json; exit 1 on regression or value drift"
        ),
    )
    p_bench.add_argument(
        "--compare-to",
        metavar="NEW.json",
        help=(
            "with --compare: diff two report files without running "
            "any benchmark"
        ),
    )
    p_bench.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="slowdown fraction that counts as a regression (0.20 = 20%%)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-smoke scale: fewer trials, one timing round",
    )
    p_bench.add_argument(
        "--trials", type=int, default=400, help="Monte-Carlo trials"
    )
    p_bench.add_argument("--seed", type=int, default=0)
    add_completion_arg(p_bench)
    p_bench.add_argument(
        "-o", "--output", help="write the JSON report here (BENCH_core.json)"
    )
    p_bench.add_argument(
        "-j",
        "--workers",
        type=int,
        default=4,
        help="workers for the parallel Monte-Carlo column (0 = auto)",
    )
    p_bench.add_argument(
        "--cache-dir",
        help="directory for the synthesis-artifact cache",
    )
    add_checkpoint_arg(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_res = sub.add_parser(
        "resume",
        help=(
            "continue an interrupted --checkpoint-dir run from its "
            "journal (byte-identical output)"
        ),
    )
    p_res.add_argument(
        "checkpoint",
        metavar="DIR",
        help="checkpoint directory of the interrupted run",
    )
    p_res.set_defaults(func=_cmd_resume)

    p_pipe = sub.add_parser(
        "pipeline",
        help=(
            "run the pass-based synthesis pipeline with provenance "
            "manifest and per-pass caching"
        ),
    )
    p_pipe.add_argument(
        "benchmark", nargs="?", help="registered benchmark name"
    )
    p_pipe.add_argument(
        "--allocation",
        help='allocation spec, e.g. "mul:2T,add:1" (default: paper)',
    )
    p_pipe.add_argument(
        "--scheduler",
        choices=SCHEDULERS.names(),
        default="list",
        help="time-step scheduler from the registry (default: list)",
    )
    p_pipe.add_argument(
        "--objective",
        choices=ORDER_OBJECTIVES.names(),
        default="latency",
        help="chain-assignment objective (default: latency)",
    )
    p_pipe.add_argument(
        "--to",
        metavar="PASS",
        default="distributed",
        help=(
            "run up to and including this pass "
            "(default: distributed; use cent-fsms for the full list)"
        ),
    )
    p_pipe.add_argument(
        "--cache-dir",
        help="directory for the per-pass synthesis-artifact cache",
    )
    p_pipe.add_argument(
        "--manifest",
        help="write the run manifest (with wall times) as JSON here",
    )
    p_pipe.add_argument(
        "--list",
        action="store_true",
        help="list the declared passes and stage registries, then exit",
    )
    p_pipe.add_argument(
        "--assert-all-cached",
        action="store_true",
        help=(
            "exit nonzero unless every cacheable pass was served from "
            "the cache (CI smoke for cache effectiveness)"
        ),
    )
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_lint = sub.add_parser(
        "lint",
        help=(
            "static verification of synthesis artifacts and generated "
            "RTL (no simulation)"
        ),
    )
    p_lint.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmark names (default: every registered benchmark)",
    )
    p_lint.add_argument(
        "--allocation",
        help=(
            'allocation spec, e.g. "mul:2T,add:1"; requires exactly '
            "one benchmark (default: paper allocation)"
        ),
    )
    p_lint.add_argument(
        "--scheduler",
        choices=SCHEDULERS.names(),
        default="list",
        help="time-step scheduler from the registry (default: list)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    p_lint.add_argument(
        "-o",
        "--output",
        help="write the combined report here instead of stdout",
    )
    p_lint.add_argument(
        "--baseline-dir",
        default=DEFAULT_BASELINE_DIR,
        metavar="DIR",
        help=f"committed baselines (default: {DEFAULT_BASELINE_DIR})",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the fresh reports as the new baselines",
    )
    p_lint.add_argument(
        "--check-baseline",
        action="store_true",
        help=(
            "additionally require each baseline file to be "
            "byte-identical to the fresh report (CI drift gate)"
        ),
    )
    p_lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help=(
            "minimum severity of a NEW finding that fails the run "
            "(default: error; never = baseline/byte checks only)"
        ),
    )
    p_lint.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "lint benchmarks on N worker processes; output is "
            "byte-identical to a serial run (default: 1)"
        ),
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_check = sub.add_parser(
        "check",
        help=(
            "explicit-state model checking of the composed distributed "
            "controller network (MC-DEAD / MC-RACE / MC-REF)"
        ),
    )
    p_check.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmark names (default: every registered benchmark)",
    )
    p_check.add_argument(
        "--allocation",
        help=(
            'allocation spec, e.g. "mul:2T,add:1"; requires exactly '
            "one benchmark (default: paper allocation)"
        ),
    )
    p_check.add_argument(
        "--scheduler",
        choices=SCHEDULERS.names(),
        default="list",
        help="time-step scheduler from the registry (default: list)",
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    p_check.add_argument(
        "-o",
        "--output",
        help="write the combined report here instead of stdout",
    )
    p_check.add_argument(
        "--baseline-dir",
        default=DEFAULT_CHECK_BASELINE_DIR,
        metavar="DIR",
        help=(
            f"committed baselines "
            f"(default: {DEFAULT_CHECK_BASELINE_DIR})"
        ),
    )
    p_check.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the fresh reports as the new baselines",
    )
    p_check.add_argument(
        "--check-baseline",
        action="store_true",
        help=(
            "additionally require each baseline file to be "
            "byte-identical to the fresh report (CI drift gate)"
        ),
    )
    p_check.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help=(
            "minimum severity of a NEW finding that fails the run "
            "(default: error; never = baseline/byte checks only)"
        ),
    )
    p_check.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        metavar="N",
        help=(
            "state budget; exceeding it raises a structured "
            "ModelCheckBudgetExceeded (default: 200000)"
        ),
    )
    p_check.add_argument(
        "--max-frontier",
        type=int,
        default=100_000,
        metavar="N",
        help="BFS frontier budget (default: 100000)",
    )
    p_check.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "model-check benchmarks on N worker processes; output is "
            "byte-identical to a serial run (default: 1)"
        ),
    )
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Every command runs under an ambient
    :class:`~repro.runtime.policy.RunReport`; any recoveries (retries,
    pool restarts, quarantined cache entries) are summarized on stderr
    after the command's own output.  Commands invoked with
    ``--checkpoint-dir`` additionally record their invocation in the
    checkpoint directory so ``repro resume`` can replay them.
    """
    from .runtime.policy import active_report

    parser = build_parser()
    actual_argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(actual_argv)
    if getattr(args, "checkpoint_dir", None):
        _write_resume_manifest(args.checkpoint_dir, actual_argv)
    with active_report() as report:
        try:
            return args.func(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        finally:
            if report.recoveries:
                print(report.render(), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
