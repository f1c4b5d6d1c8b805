"""Unit tests for the CENT-FSM product construction (Fig. 4(a))."""

import pytest

from repro.benchmarks import fig4_pathological_dfg
from repro.api import synthesize
from repro.errors import FSMError
from repro.fsm.product import build_product_fsm


class TestProductStructure:
    def test_validates(self, fig2_result):
        fig2_result.cent_fsm.validate()

    def test_inputs_are_tau_completions(self, fig2_result):
        cent = fig2_result.cent_fsm
        tau_names = {
            f"C_{u.name}"
            for u in fig2_result.allocation.telescopic_units()
        }
        assert set(cent.inputs) <= tau_names

    def test_more_states_than_any_component(self, fig3_result):
        cent = fig3_result.cent_fsm
        for fsm in fig3_result.distributed.controllers.values():
            assert cent.num_states > fsm.num_states

    def test_state_count_grows_with_tau_count(self):
        counts = []
        for n in (1, 2, 3):
            result = synthesize(fig4_pathological_dfg(n), f"mul:{n}T,add:1")
            counts.append(result.cent_fsm.num_states)
        assert counts[0] < counts[1] < counts[2]
        # Exponential blowup: the growth itself accelerates (Fig. 4(a)).
        assert counts[2] - counts[1] > counts[1] - counts[0]

    def test_max_states_guard(self, fig3_result):
        from repro.fsm.algorithm1 import derive_all_unit_controllers
        from repro.sim.controllers import system_from_bound

        system = system_from_bound(
            fig3_result.bound,
            derive_all_unit_controllers(fig3_result.bound),
        )
        with pytest.raises(FSMError, match="exceeds"):
            build_product_fsm(system, max_states=3)


class TestProductBehaviour:
    def test_outputs_union_of_components(self, fig2_result):
        cent = fig2_result.cent_fsm
        component_outputs = set()
        for fsm in fig2_result.distributed.controllers.values():
            component_outputs |= set(fsm.outputs)
        # Completion signals become internal; OF/RE survive.
        external = {
            s for s in component_outputs if not s.startswith("CC_")
        }
        assert external <= set(cent.outputs)

    def test_initial_starts_union(self, fig2_result):
        cent = fig2_result.cent_fsm
        union = set()
        for fsm in fig2_result.distributed.controllers.values():
            union |= fsm.initial_starts
        assert cent.initial_starts == union
