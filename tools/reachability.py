"""Which functions of ``src/repro`` does a product path reach?

Runs every ``repro`` CLI subcommand in-process and serially from a
temporary directory, plus one supervised-pool fault campaign, then one
cold pass and one replay of each ``perfbench`` workload at one worker.
A stdlib profile hook (``sys.setprofile`` and ``threading.setprofile``)
records every Python function that starts executing.  The script then
prints, module by module, the functions of ``src/repro`` that never ran,
with their line spans, and the total reached.

A function nested inside an unreached function is listed once, with
its parent.  Functions are matched to the code objects that ran by file,
name and first line, which for a decorated function is the line of its
first decorator.

An unreached function is a candidate for deletion, not a verdict.  The
hook does not see code that runs only inside pool worker processes
(the worker-side wrappers of ``perf.engine`` and ``runtime.supervisor``),
error paths no command triggers, or abstract methods every subclass
overrides.

Run from anywhere (it takes no arguments and writes only to a
temporary directory); the listing goes to stdout, the traced commands
and their exit codes to stderr::

    python tools/reachability.py > tools/reachability.txt

The committed ``tools/reachability.txt`` is that listing, and CI
regenerates it and diffs it against the committed copy, so a change to
``src/repro`` that moves, adds or removes an unreached function
regenerates the file with the command above.  Two checkouts give
comparable output: a function that changes between reached and
unreached shows up as a line in the diff of the listings.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

#: seed of the perfbench workloads' design draws
PERFBENCH_SEED = 123


#: the CLI invocations, run in this order from one directory
COMMANDS = (
    ["benchmarks"],
    ["synthesize", "diffeq", "--verilog", "diffeq.v", "--dot", "d.dot"],
    ["simulate", "fig2", "--trace", "--utilization", "--vcd", "f.vcd"],
    ["simulate", "fir5", "--iterations", "8", "--p", "1.0"],
    ["faults", "fig2", "--trials", "10", "--seed", "0", "--strict",
     "--json", "faults.json"],
    # supervision skips the amortization probe, so the pool loop runs
    ["faults", "fig2", "--trials", "10", "--seed", "0",
     "-j", "2", "--retries", "2"],
    ["faults", "fig2", "--trials", "6", "--seed", "0", "--style", "dist",
     "--checkpoint-dir", "ck", "--json", "ck.json"],
    ["resume", "ck"],
    ["table1"],
    ["table2"],
    ["report", "-o", "report.md"],
    ["distribution", "diffeq"],
    ["experiments", "--cache-dir", "synth-experiments"],
    ["bench", "--quick", "-j", "1", "-o", "bench.json"],
    ["bench", "--compare", "bench.json", "--compare-to", "bench.json"],
    ["pipeline", "diffeq", "--cache-dir", "synth", "--manifest", "cold.json"],
    ["pipeline", "diffeq", "--cache-dir", "synth", "--assert-all-cached"],
    ["pipeline", "--list"],
    ["lint", "--baseline-dir", str(ROOT / "baselines" / "lint"),
     "--check-baseline"],
    ["check", "--baseline-dir", str(ROOT / "baselines" / "check"),
     "--check-baseline"],
    ["check", "fig2", "--format", "json", "-o", "check.json"],
)


@dataclass(frozen=True)
class Function:
    """One ``def`` in the package source."""

    module: str
    qualname: str
    start: int  # first decorator line, else the ``def`` line
    end: int
    parent: "Function | None"  # the enclosing function, if any


def defined_functions(package: Path) -> dict[tuple[str, int, str], Function]:
    """Every function defined under ``package``, keyed like a code object.

    The key is ``(real path, first line, name)``: what
    ``co_filename``, ``co_firstlineno`` and ``co_name`` give for the
    function's code.
    """
    found: dict[tuple[str, int, str], Function] = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        real = os.path.realpath(path)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, prefix: str, parent: "Function | None") -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    start = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    function = Function(
                        module=module,
                        qualname=prefix + child.name,
                        start=start,
                        end=child.end_lineno or start,
                        parent=parent,
                    )
                    found[real, start, child.name] = function
                    visit(
                        child, f"{function.qualname}.<locals>.", function
                    )
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return found


@contextlib.contextmanager
def profiled(seen: set):
    """Record the code object of every Python call, on every thread."""

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def run_commands(log) -> None:
    from repro.cli import main

    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
        shown = " ".join(arg.replace(f"{ROOT}{os.sep}", "") for arg in argv)
        print(f"  exit {code}: repro {shown}", file=log)


def run_perfbench(work_dir: str, log) -> None:
    """One cold pass and one replay of each workload, at one worker."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read perfbench/, write nothing there
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(str(PERFBENCH))
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(PERFBENCH_SEED, work_dir)
        workload.workers = 1  # only the campaign workload reads it
        workload.setup()
        raised = 0
        workload.begin_pass()
        for op in workload.ops:
            raised += _run_op(op)
        workload.end_pass()
        replayed = workload.begin_replay()
        if replayed:
            for op in workload.ops:
                raised += _run_op(op)
        print(
            f"  perfbench {name}: {len(workload.ops)} ops"
            f"{' + replay' if replayed else ''}, {raised} raised",
            file=log,
        )


def _run_op(op) -> int:
    """Run one perfbench op; 1 if it raised (a refusal), else 0."""
    try:
        op.run()
    except Exception:  # a refused op is still a traced product path
        return 1
    return 0


def reached_functions(log=sys.stderr) -> tuple[list[Function], set]:
    """Trace every command and workload; (all functions, reached ones)."""
    functions = defined_functions(SRC / "repro")
    seen: set = set()
    cwd = os.getcwd()
    sys.path.insert(0, str(SRC))
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                with profiled(seen):
                    run_commands(log)
                    os.makedirs("perfbench")
                    run_perfbench(os.path.abspath("perfbench"), log)
            finally:
                os.chdir(cwd)
    finally:
        sys.path.remove(str(SRC))
    real: dict[str, str] = {}
    reached = set()
    for code in seen:
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(
                code.co_filename
            )
        function = functions.get((path, code.co_firstlineno, code.co_name))
        if function is not None:
            reached.add(function)
    return list(functions.values()), reached


def render(functions: list[Function], reached: set) -> str:
    """Unreached functions by module, nested ones folded into parents."""
    lines = []
    listed = 0
    by_module: dict[str, list[Function]] = {}
    for function in functions:
        parent_unreached = (
            function.parent is not None and function.parent not in reached
        )
        if function not in reached and not parent_unreached:
            by_module.setdefault(function.module, []).append(function)
    for module in sorted(by_module):
        unreached = sorted(by_module[module], key=lambda f: f.start)
        lines.append(module)
        for function in unreached:
            span = f"{function.start}-{function.end}"
            lines.append(f"  {function.qualname:<56} {span}")
            listed += 1
    lines.append(
        f"reached {len(reached)} of {len(functions)} functions in "
        f"src/repro; {listed} unreached listed "
        "(nested functions folded into their unreached parent)"
    )
    return "\n".join(lines)


def main() -> int:
    functions, reached = reached_functions()
    print(render(functions, reached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
