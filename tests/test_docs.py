"""The documentation's Python blocks run as written.

README's quickstart and every block of ``docs/api_tour.md`` not tagged
``python fragment`` run in order, in one fresh interpreter whose
working directory (and home) is a temporary directory, so the files
the snippets write land there.  Each document is one session: a block
sees the names the blocks before it in the same document bound.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "docs/api_tour.md")

#: a fenced Python block; the optional tag marks a fragment
BLOCK = re.compile(r"^```python( fragment)?\n(.*?)^```", re.M | re.S)

#: runs ``[(document, label, code), ...]`` from stdin, one namespace
#: per document, and names the first block that raises
RUNNER = """
import json, sys, traceback

namespaces = {}
for document, label, code in json.load(sys.stdin):
    namespace = namespaces.setdefault(document, {"__name__": "__main__"})
    try:
        exec(compile(code, label, "exec"), namespace)
    except Exception:
        traceback.print_exc()
        sys.exit(f"block failed: {label}")
"""


def python_blocks(document: str) -> list[tuple[bool, str, str]]:
    """``(fragment, label, code)`` for each Python block, in order."""
    text = (ROOT / document).read_text()
    blocks = []
    for match in BLOCK.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        blocks.append(
            (bool(match.group(1)), f"{document}:{line}", match.group(2))
        )
    return blocks


def test_every_python_block_is_collected():
    for document in DOCUMENTS:
        text = (ROOT / document).read_text()
        opened = len(re.findall(r"^```python", text, re.M))
        assert opened == len(python_blocks(document)), document


def test_documented_blocks_run_in_order(tmp_path):
    runnable = [
        (document, label, code)
        for document in DOCUMENTS
        for fragment, label, code in python_blocks(document)
        if not fragment
    ]
    env = dict(os.environ, HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(runnable),
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
