"""repro — distributed synchronous control units for dataflow graphs.

A full reproduction of *"Distributed Synchronous Control Units for Dataflow
Graphs under Allocation of Telescopic Arithmetic Units"* (Kim, Saito, Lee,
Lee, Nakamura, Nanya — DATE 2003) as a production-quality Python library:

* :mod:`repro.core` — dataflow-graph model and static analyses,
* :mod:`repro.resources` — fixed and telescopic arithmetic units,
  completion-signal models, bit-level datapaths and CSG synthesis,
* :mod:`repro.scheduling` — time-step, TAUBM and order-based scheduling,
* :mod:`repro.binding` — operation→unit binding,
* :mod:`repro.logic` — two-level boolean minimization for area analysis,
* :mod:`repro.fsm` — Algorithm 1 and the centralized TAUBM FSM builders,
* :mod:`repro.control` — distributed control-unit integration (Fig. 7),
* :mod:`repro.pipeline` — the pass-based synthesis pipeline: typed
  artifact store, stage registries, provenance manifests and per-pass
  content-addressed caching,
* :mod:`repro.sim` — cycle-accurate controller + datapath simulation,
* :mod:`repro.analysis` — exact/Monte-Carlo latency and area reporting,
* :mod:`repro.benchmarks` — the paper's DFG benchmark suite,
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Quickstart::

    from repro import synthesize
    from repro.benchmarks import differential_equation

    result = synthesize(differential_equation(), "mul:2T,add:1,sub:1")
    print(result.bound.describe())
    print(result.distributed.describe())
"""

from __future__ import annotations

from .api import SynthesisResult, synthesize
from .core import DataflowGraph, DFGBuilder, OpType, ResourceClass
from .pipeline import PassManager, RunManifest, run_synthesis_pipeline
from .resources import ResourceAllocation, TelescopicUnit

__version__ = "1.0.0"

__all__ = [
    "DFGBuilder",
    "DataflowGraph",
    "OpType",
    "PassManager",
    "ResourceAllocation",
    "ResourceClass",
    "RunManifest",
    "SynthesisResult",
    "TelescopicUnit",
    "__version__",
    "run_synthesis_pipeline",
    "synthesize",
]
