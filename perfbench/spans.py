"""In-memory span recorder for the traced benchmark run.

Spans wrap the public entry points of each ``repro`` layer from the
benchmark's own files; the program itself is not edited.  Every span
is kept in memory and written once, at exit, as Chrome trace-event
JSON (open it in Perfetto or chrome://tracing).  A span's *self time*
is its duration minus the time of the spans it encloses, so the busy
times of nested layers add up without double counting.

High-frequency entry points (``ControllerSystem.step``) are timed into
the same totals but not kept as individual events, which would cost
more memory than the work they describe.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections.abc import Callable, Iterator


class Recorder:
    """Nesting span recorder with per-name totals and counters."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        #: identifier shared by every span of one benchmark op
        self.op = 0
        self._stack: list[list] = []  # [child time] per open span
        self._counted: set[BaseException] = set()
        self._origin = time.perf_counter()

    def _close(
        self,
        name: str,
        start: float,
        end: float,
        child: float,
        args: "dict | None",
    ) -> None:
        duration = end - start
        self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.self_time[name] = (
            self.self_time.get(name, 0.0) + duration - child
        )
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][0] += duration
        if args is not None:
            self.events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": self.op,
                    "ts": round((start - self._origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "args": args,
                }
            )

    @contextlib.contextmanager
    def span(self, name: str, **args) -> Iterator[dict]:
        """Time the block as a ``name`` span; yields its mutable args."""
        args["op"] = self.op
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(name, start, end, frame[0], args)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        after: "Callable | None" = None,
        keep_events: bool = True,
    ) -> Callable:
        """``fn`` timed as a ``name`` span.

        ``after(result, *args, **kwargs)`` runs inside the span once
        ``fn`` returns, to read counters off the result.  An exception
        is counted once, as ``<name>.raised`` of the innermost wrapped
        layer it leaves, and re-raised unchanged.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            except Exception as exc:
                if exc not in self._counted:
                    self._counted.add(exc)
                    self.count(f"{name}.raised")
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._close(
                    name,
                    start,
                    end,
                    frame[0],
                    {"op": self.op} if keep_events else None,
                )

        return traced

    def write(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON."""
        trace = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)


class NullRecorder:
    """The untraced stand-in: spans and counters cost (almost) nothing."""

    op = 0
    _null = contextlib.nullcontext()

    def span(self, name: str, **args):
        return self._null

    def count(self, name: str, value: float = 1) -> None:
        pass


@contextlib.contextmanager
def patched(replacements) -> Iterator[None]:
    """Temporarily set ``(owner, attribute, value)`` triples."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in
             replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
