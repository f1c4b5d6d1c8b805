"""Golden model-check results: every explored state space, pinned.

The check baselines hold diagnostics only, so a clean design whose
explored state space changed would pass every gate.  This file pins one
row per (design, variant): the exploration's size (the ``check`` head
line of :meth:`ModelCheckResult.render`), the rules fired and a SHA-256
over the rendered report plus every counterexample's ``to_dict()`` JSON.
The designs are the baselined ones plus ``MANY_UNITS``; the variants are
the clean design, every structural fault of ``structural_faults.py`` and
the four mutators of ``test_verify_modelcheck.py``.  A mutator that does
not fit a design gets a row saying so.  To regenerate after an
intentional change::

    PYTHONPATH=src python tests/test_golden_modelcheck.py \\
        > tests/golden/modelcheck.txt
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.errors import ReproError
from repro.verify import LintTarget
from repro.verify.modelcheck import check_target

from structural_faults import STRUCTURAL_FAULTS
from test_sim_batch import MANY_UNITS
from test_verify_modelcheck import (
    _complete_early,
    _double_start,
    _noisy_impostor,
    _start_early,
)

GOLDEN = Path(__file__).parent / "golden" / "modelcheck.txt"
BASELINES = Path(__file__).parent.parent / "baselines" / "check"

#: the baselined designs, then one with nine units
DESIGNS = (*sorted(p.stem for p in BASELINES.glob("*.json")), MANY_UNITS)

#: every variant: the clean design, then each mutator by name
VARIANTS = (
    ("clean", None),
    *((fault.kind, fault.mutate) for fault in STRUCTURAL_FAULTS),
    ("noisy-impostor", _noisy_impostor),
    ("complete-early", _complete_early),
    ("double-start", _double_start),
    ("start-early", _start_early),
)


def target_of(name: str) -> LintTarget:
    """The design as ``repro check`` builds it."""
    entry = benchmark(name)
    result = synthesize(entry.factory(), entry.allocation())
    return LintTarget.from_result(result, name=name)


def result_digest(result) -> str:
    """SHA-256 of the rendered report plus the counterexamples' JSON."""
    payload = result.render() + "\n" + json.dumps(
        [cex.to_dict() for cex in result.counterexamples], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def row(variant: str, target: LintTarget, mutate) -> str:
    """One golden row: the variant, then its outcome."""
    if mutate is not None:
        try:
            target = mutate(target)
        except (AssertionError, ReproError) as exc:
            return f"{variant} | {target.name} | unsuitable: {exc}"
    try:
        result = check_target(target)
    except ReproError as exc:
        return f"{variant} | {target.name} | {type(exc).__name__}: {exc}"
    head = result.render().splitlines()[0]
    rules = ",".join(result.report.rules_fired()) or "-"
    return f"{variant} | {head} | {rules} | {result_digest(result)}"


def golden_rows(name: str) -> list[str]:
    """Every variant's row for one design."""
    target = target_of(name)
    return [row(variant, target, mutate) for variant, mutate in VARIANTS]


def golden_text() -> str:
    return "".join(
        line + "\n" for name in DESIGNS for line in golden_rows(name)
    )


def test_model_check_matches_golden():
    expected = GOLDEN.read_text()
    actual = golden_text()
    assert actual == expected, (
        "model-check results changed; regenerate the golden file if "
        "intentional (see this module's docstring)"
    )


if __name__ == "__main__":
    print(golden_text(), end="")
