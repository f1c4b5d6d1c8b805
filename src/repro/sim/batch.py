"""Vectorized batch Monte-Carlo simulation (thousands of trials in lockstep).

The scalar path in :mod:`repro.sim.runner` runs one Python event loop
per trial; at sub-millisecond per simulation the interpreter dispatch —
not the model — dominates.  This engine simulates *all* trials at once
with trial-major numpy arrays:

* **Replicated randomness.**  The scalar simulator draws fast/slow
  outcomes from ``random.Random(derive_seed(seed, trial))`` — CPython's
  MT19937.  :func:`mt_streams` reproduces those exact streams in bulk:
  it vectorizes ``init_by_array`` over the trial axis (state matrix of
  shape ``(624, trials)``, processed in cache-resident chunks) and
  tempers the first ``2*draws`` outputs directly from the seeded state
  (no twist is needed below 227 outputs), yielding the same
  53-bit doubles ``random.random()`` would return, bit for bit.
* **Shared trial streams.**  The draws depend only on ``(seed,
  trials)``, not on the design, so :func:`trial_streams` keeps one
  read-only block per key for the few most recent keys and every
  engine reads it: calls with the same ``(seed, trials)`` derive the
  trial seeds and seed the MT19937 states once.  A call that needs
  more draws per trial regenerates the block wider, with the same
  leading columns.
* **Transition memo.**  The cycle step is driven by the *real*
  :meth:`~repro.sim.controllers.ControllerSystem.step` — but a system
  only ever visits a few thousand distinct ``(config, completion
  flags)`` pairs, so each is expanded once into dense row tables
  (next config id, per-unit keep masks, completed-op bitmask, started
  ops) and every cycle becomes a handful of array gathers across all
  live trials.  The memo persists on the :class:`BatchSimulator`, and
  :func:`shared_engine` keeps one engine per live system object, so
  only calls on the same engine or the same system object reuse it.
  ``SynthesisResult.monte_carlo_latency`` builds a fresh system per
  call, so each of its calls starts with a cold memo (but a shared
  stream block).
* **Bitvector completion tracking.**  Completed ops accumulate into one
  int64 bitmask per trial; a trial finishes the cycle its mask covers
  every operation, matching the scalar first-iteration latency
  semantics.  Finished trials are compacted out of the live arrays.

Statistics are byte-identical to ``monte_carlo_latency``'s scalar path
(pinned by ``tests/test_sim_batch.py`` across all three controller
styles) for every :class:`~repro.resources.spec.CompletionSpec` kind —
Bernoulli thresholds the shared draw stream with one constant,
per-unit mixes with a per-op threshold array, and Markov specs with a
compacted per-trial per-unit state matrix that replays the scalar
chain exactly.  The engine refuses — rather than approximates —
anything it cannot reproduce exactly (>63 ops, missing numpy), and
refuses a design whose dense transition index (one int64 slot per
``(config, completion flags)`` pair, so ``configs << units`` slots)
would outgrow :data:`_ROWTAB_BYTES`; ``engine="auto"`` then runs the
scalar path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..resources.completion import markov_transition_probabilities
from ..resources.spec import CompletionSpec, MarkovSpec, as_completion_spec
from .runner import LatencyStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..binding.binder import BoundDataflowGraph
    from .controllers import ControllerSystem

try:  # numpy is an optional dependency; every entry point is gated
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None


def numpy_available() -> bool:
    """Whether the vectorized engine can run in this interpreter."""
    return _np is not None


class BatchUnsupported(SimulationError):
    """The batch engine cannot reproduce this configuration exactly."""


def _require_numpy() -> None:
    if _np is None:
        raise BatchUnsupported(
            "batch Monte-Carlo requires numpy; install it or use the "
            "scalar engine"
        )


# -- MT19937 stream replication ------------------------------------------

#: ``random.random()`` consumes two 32-bit outputs per double; the
#: untwisted MT state yields 227 outputs, so 113 draws per trial is the
#: widest block the no-twist fast path can serve.
_MAX_DRAWS = 113


def _mt_base():
    """State after ``init_genrand(19650218)`` — shared by every seed."""
    mt = _np.empty(624, dtype=_np.uint64)
    mt[0] = 19650218
    for i in range(1, 624):
        mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & (
            0xFFFFFFFF
        )
    return mt.astype(_np.uint32)


_BASE = None


def _chunk_streams(key0, key1, draws, scratch):
    """``random.random()`` doubles for one chunk of trial seeds.

    Runs CPython's ``init_by_array`` over the whole chunk at once (the
    state matrix is ``(624, chunk)``; all ops in-place on ``scratch``),
    then tempers the first ``2*draws`` outputs straight from the seeded
    state.  ``key0``/``key1`` are the little-endian 32-bit words of the
    63-bit :func:`~repro.perf.engine.derive_seed` values.
    """
    mt, tmp = scratch
    mt[:] = _BASE[:, None]
    key = (key0, key1)
    xor, rsh = _np.bitwise_xor, _np.right_shift
    mul, add, sub = _np.multiply, _np.add, _np.subtract
    i, j = 1, 0
    for _ in range(624, 0, -1):
        prev, row = mt[i - 1], mt[i]
        rsh(prev, 30, out=tmp)
        xor(prev, tmp, out=tmp)
        mul(tmp, _np.uint32(1664525), out=tmp)
        xor(row, tmp, out=row)
        add(row, key[j], out=row)
        if j:
            add(row, _np.uint32(j), out=row)
        i += 1
        j += 1
        if i >= 624:
            mt[0] = mt[623]
            i = 1
        if j >= 2:
            j = 0
    for _ in range(623, 0, -1):
        prev, row = mt[i - 1], mt[i]
        rsh(prev, 30, out=tmp)
        xor(prev, tmp, out=tmp)
        mul(tmp, _np.uint32(1566083941), out=tmp)
        xor(row, tmp, out=row)
        sub(row, _np.uint32(i), out=row)
        i += 1
        if i >= 624:
            mt[0] = mt[623]
            i = 1
    mt[0] = _np.uint32(0x80000000)
    n = 2 * draws
    y = (mt[0:n] & _np.uint32(0x80000000)) | (
        mt[1 : n + 1] & _np.uint32(0x7FFFFFFF)
    )
    out = mt[397 : 397 + n] ^ (y >> 1) ^ ((y & _np.uint32(1)) * (
        _np.uint32(0x9908B0DF)
    ))
    out ^= out >> 11
    out ^= (out << 7) & _np.uint32(0x9D2C5680)
    out ^= (out << 15) & _np.uint32(0xEFC60000)
    out ^= out >> 18
    high = (out[0::2] >> 5).astype(_np.float64)
    low = (out[1::2] >> 6).astype(_np.float64)
    return ((high * 67108864.0 + low) * (1.0 / 9007199254740992.0)).T


def mt_streams(seeds, draws: int, chunk: int = 16384):
    """``(trials, draws)`` doubles matching ``random.Random(seed)``.

    Byte-for-byte the values ``random.Random(int(seed)).random()`` would
    produce, for every seed at once.  ``draws`` is capped at 113 (the
    no-twist limit); ``chunk`` bounds the working set so the state
    matrix stays cache-resident.
    """
    _require_numpy()
    global _BASE
    if _BASE is None:
        _BASE = _mt_base()
    if draws > _MAX_DRAWS:
        raise BatchUnsupported(
            f"{draws} draws per trial exceeds the no-twist limit "
            f"{_MAX_DRAWS}"
        )
    seeds = _np.asarray(seeds, dtype=_np.uint64)
    key0 = (seeds & _np.uint64(0xFFFFFFFF)).astype(_np.uint32)
    key1 = (seeds >> _np.uint64(32)).astype(_np.uint32)
    trials = seeds.shape[0]
    result = _np.empty((trials, draws))
    scratch = None
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        if scratch is None or hi - lo != scratch[0].shape[1]:
            scratch = (
                _np.empty((624, hi - lo), dtype=_np.uint32),
                _np.empty(hi - lo, dtype=_np.uint32),
            )
        result[lo:hi] = _chunk_streams(
            key0[lo:hi], key1[lo:hi], draws, scratch
        )
    return result


# -- shared trial streams ------------------------------------------------

#: the stream table keeps the blocks of the most recent ``(seed,
#: trials)`` keys: at most this many keys and this many block bytes
_STREAM_KEYS = 4
_STREAM_BYTES = 64 << 20

# (seed, trials) -> (derived trial seeds, read-only draw block), least
# recently used first
_STREAMS: "OrderedDict[tuple[int, int], tuple]" = OrderedDict()
_STREAMS_LOCK = threading.Lock()


def trial_streams(seed: int, trials: int, draws: int):
    """Read-only draw block, at least ``draws`` wide, for ``(seed, trials)``.

    Row ``t`` holds ``random.Random(derive_seed(seed, t))``'s first
    doubles.  Every engine shares the block of a key, so calls with the
    same ``(seed, trials)`` derive the seeds and seed the MT19937 states
    once.  A request wider than the kept block regenerates it wider;
    MT19937 output ``j`` does not depend on how many outputs are
    tempered, so the leading columns stay byte-identical.
    """
    from ..perf.engine import derive_seed

    _require_numpy()
    key = (seed, trials)
    with _STREAMS_LOCK:
        entry = _STREAMS.pop(key, None)
        if entry is None:
            seeds = _np.fromiter(
                (derive_seed(seed, t) for t in range(trials)),
                dtype=_np.uint64,
                count=trials,
            )
            block = None
        else:
            seeds, block = entry
        if block is None or block.shape[1] < draws:
            block = mt_streams(seeds, draws)
            block.flags.writeable = False
        _STREAMS[key] = (seeds, block)
        kept = sum(old.nbytes for _, old in _STREAMS.values())
        while len(_STREAMS) > _STREAM_KEYS or kept > _STREAM_BYTES:
            _, (_, old) = _STREAMS.popitem(last=False)
            kept -= old.nbytes
    return block


# -- the lockstep engine -------------------------------------------------

#: bound on the transition index's bytes: ``1 << units`` int64 slots per
#: interned config, so 21 units fill it with 4 configs and 24 units
#: cannot hold one; the core, CI and perfbench latency designs stay at
#: 4 MiB or less
_ROWTAB_BYTES = 64 << 20


class _DrawOverflow(Exception):
    """A trial needed more Bernoulli draws than were pre-generated."""


class BatchSimulator:
    """Lockstep Monte-Carlo engine for one ``(system, bound)`` design.

    Construction compiles the op/unit tables; the transition memo then
    grows on demand as trials visit new ``(config, flags)`` pairs and is
    kept across :meth:`latencies` calls on this engine.  Reuse needs the
    same engine object (or, through :func:`shared_engine`, the same
    system object): an engine built for a fresh system expands every
    pair it visits again, through
    :meth:`~repro.sim.controllers.ControllerSystem.step`.
    """

    def __init__(
        self, system: "ControllerSystem", bound: "BoundDataflowGraph"
    ) -> None:
        _require_numpy()
        ops = sorted(system.all_ops())
        if len(ops) > 63:
            raise BatchUnsupported(
                f"{len(ops)} ops exceed the 63-bit completion mask"
            )
        self.system = system
        self.bound = bound
        self.ops = ops
        self.N = len(ops)
        self.opi = {op: i for i, op in enumerate(ops)}
        units = sorted({bound.unit_of(op).name for op in ops})
        self.units = units
        self.U = len(units)
        unit_index = {u: i for i, u in enumerate(units)}
        self.unit_arr = [unit_index[bound.unit_of(op).name] for op in ops]
        telescopic = set(bound.telescopic_ops()) & set(ops)
        self.is_tele = [op in telescopic for op in ops]
        fast = [
            bound.duration_for_level(op, 0)
            if op in telescopic
            else bound.duration_cycles(op, fast=True)
            for op in ops
        ]
        slow = [
            bound.duration_for_level(op, bound.unit_of(op).num_levels - 1)
            if op in telescopic
            else fast[i]
            for i, op in enumerate(ops)
        ]
        self.fast_arr = _np.array(fast, dtype=_np.int16)
        self.slow_arr = _np.array(slow, dtype=_np.int16)
        self.k = len(telescopic)
        self.max_cycles = 16 + 4 * sum(
            bound.duration_cycles(op, fast=False) for op in ops
        )
        # persistent transition memo: one row per (config, flags) pair
        self._config_ids: dict = {}
        self._configs: list = []
        self._next_config: list[int] = []
        self._keep_rows: list = []
        self._done_rows: list[int] = []
        self._start_rows: list = []
        self._rowtab = self._new_rowtab(1 << self.U)
        self._tables_cache = None
        self.init_config = self._intern(system.initial_config())
        self.init_starts = sorted(system.initial_starts())
        # draws per trial: one per telescopic start, including the
        # wrap-around second-iteration starts observed before the last
        # first-iteration completion; k + 2U + 2 covers every benchmark
        # with margin, and an overflow doubles the shared block's width
        # and retries
        self.initial_draws = min(self.k + 2 * self.U + 2, _MAX_DRAWS)

    # -- transition memo -------------------------------------------------

    def _new_rowtab(self, slots: int):
        """An empty transition index of ``slots`` rows, within the bound."""
        nbytes = slots * 8
        if nbytes > _ROWTAB_BYTES:
            raise BatchUnsupported(
                f"{self.U} units need a {nbytes:,}-byte transition index, "
                f"over the batch engine's {_ROWTAB_BYTES:,}-byte bound"
            )
        return _np.full(slots, -1, dtype=_np.int64)

    def _intern(self, config) -> int:
        row = self._config_ids.get(config)
        if row is None:
            # grow (or refuse) before the config joins the memo
            need = (len(self._configs) + 1) << self.U
            if self._rowtab.size < need:
                grown = self._new_rowtab(
                    max(need, min(2 * self._rowtab.size, _ROWTAB_BYTES // 8))
                )
                grown[: self._rowtab.size] = self._rowtab
                self._rowtab = grown
            row = len(self._configs)
            self._config_ids[config] = row
            self._configs.append(config)
        return row

    def _expand(self, key: int) -> None:
        """Memoize one ``(config, completion flags)`` transition."""
        config_id = key >> self.U
        flag_bits = key & ((1 << self.U) - 1)
        unit_completions = {
            self.units[u]: bool(flag_bits >> u & 1) for u in range(self.U)
        }
        step = self.system.step(
            self._configs[config_id], unit_completions
        )
        keep = _np.ones(self.U, dtype=bool)
        done_bits = 0
        for op in step.completes:
            keep[self.unit_arr[self.opi[op]]] = False
            done_bits |= 1 << self.opi[op]
        starts = _np.zeros(self.N, dtype=bool)
        for op in step.starts:
            starts[self.opi[op]] = True
        next_config = self._intern(step.config)
        self._next_config.append(next_config)
        self._keep_rows.append(keep)
        self._done_rows.append(done_bits)
        self._start_rows.append(starts)
        self._rowtab[key] = len(self._next_config) - 1
        self._tables_cache = None

    def _tables(self):
        if self._tables_cache is None:
            start_matrix = _np.array(self._start_rows)
            self._tables_cache = (
                _np.array(self._next_config, dtype=_np.int64),
                _np.array(self._keep_rows),
                _np.array(self._done_rows, dtype=_np.int64),
                start_matrix,
                start_matrix.any(axis=1),
            )
        return self._tables_cache

    @property
    def memo_size(self) -> int:
        """Distinct ``(config, flags)`` transitions expanded so far."""
        return len(self._next_config)

    # -- simulation ------------------------------------------------------

    def latencies(
        self, p: "float | str | CompletionSpec", trials: int, seed: int = 0
    ):
        """First-iteration latencies (cycles) for all trials.

        Entry ``t`` equals ``simulate(system, bound, spec.model(),
        seed=derive_seed(seed, trial=t)).cycles`` exactly, for any
        completion spec (Bernoulli, per-unit, Markov).
        """
        spec = as_completion_spec(p)
        if trials <= 0:
            raise SimulationError(
                f"batch Monte-Carlo needs >= 1 trial, got {trials}"
            )
        draws = self.initial_draws
        while True:
            u = trial_streams(seed, trials, draws)
            try:
                return self._run(u, spec)
            except _DrawOverflow:
                if u.shape[1] >= _MAX_DRAWS:
                    raise BatchUnsupported(
                        "trial exceeded the per-trial draw budget"
                    ) from None
                draws = min(2 * u.shape[1], _MAX_DRAWS)

    def statistics(
        self, p: "float | str | CompletionSpec", trials: int, seed: int = 0
    ) -> LatencyStatistics:
        """``LatencyStatistics`` byte-identical to the scalar path."""
        return LatencyStatistics.from_samples(
            self.latencies(p, trials, seed).tolist()
        )

    def _op_thresholds(self, spec: CompletionSpec):
        """Per-op fast thresholds for i.i.d. specs (telescopic ops only)."""
        thresholds = _np.zeros(self.N)
        for i, op in enumerate(self.ops):
            if self.is_tele[i]:
                thresholds[i] = spec.probability_for(self.bound.unit_of(op))
        return thresholds

    def _run(self, u, spec: CompletionSpec):
        trials = u.shape[0]
        width = u.shape[1]
        unit_arr, is_tele = self.unit_arr, self.is_tele
        fast_arr, slow_arr = self.fast_arr, self.slow_arr
        if isinstance(spec, MarkovSpec):
            thresholds = None
            first_threshold = spec.p_fast
            after_fast, after_slow = markov_transition_probabilities(
                spec.p_fast, spec.stickiness
            )
            # -1 = no history yet, 0 = last draw slow, 1 = last draw fast;
            # compacted alongside the other live-trial arrays
            markov_state = _np.full((trials, self.U), -1, dtype=_np.int8)
        else:
            thresholds = self._op_thresholds(spec)
            markov_state = None
        remaining = _np.zeros((trials, self.U), dtype=_np.int16)
        executing = _np.zeros((trials, self.U), dtype=bool)
        config = _np.full(trials, self.init_config, dtype=_np.int64)
        draw_count = _np.zeros(trials, dtype=_np.int64)
        done_mask = _np.zeros(trials, dtype=_np.int64)
        latency = _np.full(trials, -1, dtype=_np.int64)
        # live-trial view; ``u``/``draw_count`` index by original
        # trial id and are never compacted
        orig = _np.arange(trials)

        def start_op(op, rows, trial_ids, extra):
            unit = unit_arr[op]
            if is_tele[op]:
                counts = draw_count[trial_ids]
                if counts.size and int(counts.max()) >= width:
                    raise _DrawOverflow
                draw = u[trial_ids, counts]
                draw_count[trial_ids] = counts + 1
                if markov_state is None:
                    fast_bit = draw < thresholds[op]
                else:
                    state = markov_state[rows, unit]
                    fast_bit = draw < _np.where(
                        state < 0,
                        first_threshold,
                        _np.where(state > 0, after_fast, after_slow),
                    )
                    markov_state[rows, unit] = fast_bit
                remaining[rows, unit] = _np.where(
                    fast_bit, fast_arr[op], slow_arr[op]
                ).astype(_np.int16) + _np.int16(extra)
            else:
                remaining[rows, unit] = int(fast_arr[op]) + extra
            executing[rows, unit] = True

        all_rows = _np.arange(trials)
        for op in self.init_starts:
            start_op(self.opi[op], all_rows, all_rows, 0)
        full = _np.int64((1 << self.N) - 1)
        cycle = 0
        while orig.size:
            if cycle >= self.max_cycles:
                raise SimulationError(
                    f"batch simulation exceeded {self.max_cycles} cycles"
                )
            flags = executing & (remaining <= _np.int16(1))
            packed = _np.packbits(
                flags, axis=1, bitorder="little"
            ).astype(_np.int64)
            flag_bits = packed[:, 0]
            # one byte per eight units, little end first
            for byte in range(1, packed.shape[1]):
                flag_bits |= packed[:, byte] << _np.int64(8 * byte)
            keys = (config << _np.int64(self.U)) | flag_bits
            rows = self._rowtab[keys]
            missing = rows < 0
            if missing.any():
                for key in _np.unique(keys[missing]):
                    self._expand(int(key))
                rows = self._rowtab[keys]
            next_config, keep, done, start_matrix, row_starts = (
                self._tables()
            )
            config = next_config[rows]
            executing &= keep[rows]
            done_mask |= done[rows]
            if row_starts[rows].any():
                started_ops = _np.flatnonzero(
                    start_matrix[_np.unique(rows)].any(axis=0)
                )
                # sorted op order matches the scalar simulator's
                # deterministic draw order
                columns = start_matrix[:, started_ops][rows]
                for col in range(started_ops.size):
                    hit = _np.flatnonzero(columns[:, col])
                    if hit.size:
                        start_op(
                            int(started_ops[col]), hit, orig[hit], 1
                        )
            remaining -= _np.int16(1)
            cycle += 1
            finished = done_mask == full
            n_finished = int(_np.count_nonzero(finished))
            if n_finished:
                latency[orig[finished]] = cycle
                if n_finished == orig.size:
                    break
                live = ~finished
                orig = orig[live]
                remaining = remaining[live]
                executing = executing[live]
                config = config[live]
                done_mask = done_mask[live]
                if markov_state is not None:
                    markov_state = markov_state[live]
        return latency


def batch_monte_carlo_latency(
    system: "ControllerSystem",
    bound: "BoundDataflowGraph",
    p: "float | str | CompletionSpec",
    trials: int = 200,
    seed: int = 0,
    *,
    engine: "BatchSimulator | None" = None,
) -> LatencyStatistics:
    """Vectorized drop-in for the scalar ``monte_carlo_latency`` core.

    Pass a prebuilt :class:`BatchSimulator` as ``engine`` to reuse its
    transition memo across calls; otherwise one is built (and cached per
    ``(system, bound)`` pair) on the fly.
    """
    if engine is None:
        engine = shared_engine(system, bound)
    return engine.statistics(p, trials, seed)


# engines keyed on the live system object; entries die with the system
_ENGINES: "dict | None" = None


def shared_engine(
    system: "ControllerSystem", bound: "BoundDataflowGraph"
) -> BatchSimulator:
    """The process-wide memoized engine for ``(system, bound)``."""
    import weakref

    global _ENGINES
    _require_numpy()
    if _ENGINES is None:
        _ENGINES = weakref.WeakKeyDictionary()
    entry = _ENGINES.get(system)
    if entry is not None and entry[0] is bound:
        return entry[1]
    # the engine reaches its system through a proxy: a strong reference
    # from the value would keep the weak key, and so the entry, alive
    engine = BatchSimulator(weakref.proxy(system), bound)
    _ENGINES[system] = (bound, engine)
    return engine


def batch_supported(
    system: "ControllerSystem", bound: "BoundDataflowGraph"
) -> bool:
    """Whether the batch engine can take this design at all."""
    return numpy_available() and len(system.all_ops()) <= 63


__all__: Sequence[str] = (
    "BatchSimulator",
    "BatchUnsupported",
    "batch_monte_carlo_latency",
    "batch_supported",
    "mt_streams",
    "numpy_available",
    "shared_engine",
    "trial_streams",
)
