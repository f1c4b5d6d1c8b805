"""Deterministic parallel execution engine, synthesis cache and bench.

``repro.perf`` is the scaling layer under every statistical experiment:

* :mod:`~repro.perf.engine` — :func:`parallel_map` fans independent
  trials out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  with chunked submission and a guaranteed serial fallback; per-trial
  seeds come from :func:`derive_seed`, a stable hash of
  ``(base_seed, trial)``, so parallel output is byte-identical to
  serial output.
* :mod:`~repro.perf.cache` — stable design and artifact fingerprints
  and the content-addressed, self-healing per-pass synthesis cache
  behind :mod:`repro.pipeline` (``--cache-dir``).
* :mod:`~repro.perf.bench` — the ``repro bench`` harness that times
  synthesis, simulation, scalar Monte-Carlo (serial vs parallel), the
  batch Monte-Carlo engine and the exact latency engine on the
  registered benchmarks and persists the perf trajectory in
  ``BENCH_core.json``.
"""

from .cache import (
    SynthesisCache,
    artifact_fingerprint,
    design_fingerprint,
)
from .engine import (
    derive_seed,
    derive_seed_text,
    deterministic_jitter,
    parallel_map,
    resolve_workers,
)
from .bench import BenchReport, run_bench

__all__ = [
    "BenchReport",
    "SynthesisCache",
    "artifact_fingerprint",
    "derive_seed",
    "derive_seed_text",
    "deterministic_jitter",
    "design_fingerprint",
    "parallel_map",
    "resolve_workers",
    "run_bench",
]
