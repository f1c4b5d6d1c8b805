"""Unit tests for TAUBM schedule derivation (paper §2.2, Fig. 2(b))."""

from repro.benchmarks import paper_fig2_dfg
from repro.resources.allocation import ResourceAllocation
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.taubm import derive_taubm_schedule, telescopic_classes
from repro.core.ops import ResourceClass


class TestDeriveTaubm:
    def setup_method(self):
        self.dfg = paper_fig2_dfg()
        self.alloc = ResourceAllocation.parse("mul:2T,add:1")
        self.sched = list_schedule(self.dfg, self.alloc)
        self.taubm = derive_taubm_schedule(self.sched, self.alloc)

    def test_steps_with_multiplications_split(self):
        """Fig. 2(b): only TAU steps get T' extensions."""
        for step in self.taubm.steps:
            has_mult = any(
                self.dfg.op(n).resource_class is ResourceClass.MULTIPLIER
                for n in step.ops
            )
            assert step.has_extension == has_mult

    def test_fig2_extension_pattern(self):
        flags = [s.has_extension for s in self.taubm.steps]
        assert flags == [True, False, True, False]

    def test_tau_ops_are_multiplications(self):
        for step in self.taubm.steps:
            for op in step.tau_ops:
                assert (
                    self.dfg.op(op).resource_class
                    is ResourceClass.MULTIPLIER
                )

    def test_all_ops_covered_once(self):
        seen = [op for step in self.taubm.steps for op in step.ops]
        assert sorted(seen) == sorted(self.dfg.op_names())

    def test_describe_marks_extensions(self):
        text = self.taubm.describe()
        assert "+ T'" in text


class TestHelpers:
    def test_telescopic_classes(self):
        alloc = ResourceAllocation.parse("mul:2T,add:1")
        assert telescopic_classes(alloc) == {ResourceClass.MULTIPLIER}

    def test_no_telescopic_classes(self):
        alloc = ResourceAllocation.parse("mul:2,add:1")
        assert telescopic_classes(alloc) == frozenset()

    def test_no_extensions_without_taus(self):
        dfg = paper_fig2_dfg()
        alloc = ResourceAllocation.parse("mul:2,add:1")
        sched = list_schedule(dfg, alloc)
        taubm = derive_taubm_schedule(sched, alloc)
        assert taubm.min_cycles() == taubm.max_cycles()
