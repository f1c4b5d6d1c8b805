"""Golden pin for the exact-latency analysis output.

The exact engine feeds ``repro distribution`` and the multi-level,
P-sweep, SD/LD and communication experiments.  This test replays those
commands in-process through :func:`repro.cli.main` and compares the
concatenated stdout with ``tests/golden/exact_latency.txt`` byte for
byte, so any change to a rendered PMF, mean, percentile or CENT-SYNC
figure shows up as a readable diff.  To regenerate after an intentional
change::

    PYTHONPATH=src python tests/test_golden_exact_latency.py
"""

import contextlib
import io
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "exact_latency.txt"

#: the commands whose stdout the golden file holds, in order
COMMANDS = tuple(
    ["distribution", name, "--p", p]
    for name in ("fig3", "diffeq", "iir3", "ar_lattice")
    for p in ("0.9", "0.7")
) + (
    ["distribution", "ar_lattice", "--completion", "per-unit:mul=0.9,*=0.6"],
    ["experiments", "multilevel", "psweep", "sdld", "communication"],
)


def render_exact_golden() -> str:
    from repro.cli import main

    chunks = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        chunks.append(f"$ repro {' '.join(argv)}\n{out.getvalue()}")
    return "\n".join(chunks)


def test_exact_latency_output_matches_golden():
    assert render_exact_golden() == GOLDEN.read_text(), (
        "exact-latency output changed; regenerate the golden file if "
        "intentional (see this module's docstring)"
    )


if __name__ == "__main__":
    GOLDEN.write_text(render_exact_golden())
