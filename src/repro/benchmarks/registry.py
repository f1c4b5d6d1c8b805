"""Benchmark registry: name → (DFG factory, paper allocation).

The allocation strings are the paper's Table 2 resource columns, with
``T`` marking the telescopic class (multipliers throughout).

Besides the ten fixed benchmarks, :func:`benchmark` materializes *seeded
generated families* on demand: any ``gen:...`` name (see
:mod:`repro.benchmarks.generate`) is parsed, canonicalized, built and
registered transparently, so every consumer of the registry — bench,
fault campaigns, the lint gate — takes generated designs with zero
special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..core.dfg import DataflowGraph
from ..errors import ReproError
from ..resources.allocation import ResourceAllocation
from .ar_lattice import ar_lattice
from .diffeq import differential_equation
from .ewf import elliptic_wave_filter
from .fdct import fdct
from .fir import fir3, fir5
from .iir import iir2, iir3
from .paper_examples import paper_fig2_dfg, paper_fig3_dfg


@dataclass(frozen=True)
class BenchmarkEntry:
    """One registered benchmark with its paper allocation."""

    name: str
    title: str
    factory: Callable[[], DataflowGraph]
    allocation_spec: str
    in_table2: bool
    generated: bool = False

    def dfg(self) -> DataflowGraph:
        return self.factory()

    def allocation(self) -> ResourceAllocation:
        return ResourceAllocation.parse(self.allocation_spec)


_REGISTRY: dict[str, BenchmarkEntry] = {}


def _register(entry: BenchmarkEntry) -> None:
    _REGISTRY[entry.name] = entry


def register_benchmark(entry: BenchmarkEntry) -> BenchmarkEntry:
    """Register (or replace) a benchmark entry and return it."""
    _register(entry)
    return entry


_register(
    BenchmarkEntry(
        name="fir3",
        title="3rd FIR",
        factory=fir3,
        allocation_spec="mul:2T,add:1",
        in_table2=True,
    )
)
_register(
    BenchmarkEntry(
        name="fir5",
        title="5th FIR",
        factory=fir5,
        allocation_spec="mul:2T,add:1",
        in_table2=True,
    )
)
_register(
    BenchmarkEntry(
        name="iir2",
        title="2nd IIR",
        factory=iir2,
        allocation_spec="mul:2T,add:1",
        in_table2=True,
    )
)
_register(
    BenchmarkEntry(
        name="iir3",
        title="3rd IIR",
        factory=iir3,
        allocation_spec="mul:3T,add:2",
        in_table2=True,
    )
)
_register(
    BenchmarkEntry(
        name="diffeq",
        title="Diff.",
        factory=differential_equation,
        allocation_spec="mul:2T,add:1,sub:1",
        in_table2=True,
    )
)
_register(
    BenchmarkEntry(
        name="ar_lattice",
        title="AR-lattice",
        factory=ar_lattice,
        allocation_spec="mul:4T,add:2",
        in_table2=True,
    )
)
_register(
    BenchmarkEntry(
        name="fig2",
        title="Fig. 2 example",
        factory=paper_fig2_dfg,
        allocation_spec="mul:2T,add:1",
        in_table2=False,
    )
)
_register(
    BenchmarkEntry(
        name="fig3",
        title="Fig. 3 example",
        factory=paper_fig3_dfg,
        allocation_spec="mul:2T,add:2",
        in_table2=False,
    )
)
_register(
    BenchmarkEntry(
        name="fdct",
        title="8-pt FDCT (extension)",
        factory=fdct,
        allocation_spec="mul:2T,add:2,sub:2",
        in_table2=False,
    )
)
_register(
    BenchmarkEntry(
        name="ewf",
        title="EWF-style (extension)",
        factory=elliptic_wave_filter,
        allocation_spec="mul:2T,add:2",
        in_table2=False,
    )
)


def benchmark(name: str) -> BenchmarkEntry:
    """Look up a registered benchmark (materializing ``gen:`` families).

    A ``gen:...`` name is parsed, canonicalized (fixed key order,
    defaults filled in) and its entry built and registered on first use
    — the same name always denotes the same byte-identical design.
    """
    if name.startswith("gen:"):
        from .generate import family_entry, parse_family

        spec = parse_family(name)
        entry = _REGISTRY.get(spec.name)
        if entry is None:
            entry = register_benchmark(family_entry(spec))
        return entry
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown benchmark {name!r}; available: {sorted(_REGISTRY)} "
            f"plus generated 'gen:...' families"
        ) from None


def all_benchmarks() -> tuple[BenchmarkEntry, ...]:
    """Every fixed registered benchmark, registration order.

    Generated ``gen:`` families are materialized on demand and
    deliberately excluded: default sweeps (benchmark listing, lint,
    committed baselines) cover the fixed set, and generated designs
    participate only when named explicitly.
    """
    return tuple(e for e in _REGISTRY.values() if not e.generated)


def core_benchmark_names() -> tuple[str, ...]:
    """The fixed (non-generated) benchmark names, registration order.

    This is the single source of the default benchmark list — the bench
    harness and CLI defaults derive from it instead of re-declaring it.
    """
    return tuple(e.name for e in _REGISTRY.values() if not e.generated)


def table2_benchmarks() -> tuple[BenchmarkEntry, ...]:
    """The six Table 2 rows, paper order."""
    return tuple(e for e in _REGISTRY.values() if e.in_table2)
