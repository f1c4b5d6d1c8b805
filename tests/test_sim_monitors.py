"""Runtime invariant monitors: diagnostics, soundness, the handshake switch."""

import pytest

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.errors import DeadlockError, ProtocolError
from repro.faults import (
    DroppedPulseFault,
    StuckCompletionFault,
    inject,
)
from repro.resources import AllFastCompletion, AllSlowCompletion
from repro.sim import MonitorConfig, simulate


@pytest.fixture(scope="module")
def fir5_result():
    entry = benchmark("fir5")
    return synthesize(entry.dfg(), entry.allocation())


class TestDeadlockWatchdog:
    def test_quiescence_fires_long_before_max_cycles(self, fig2_result):
        """The watchdog proves the system stuck from a repeated
        configuration — it must not wait for the max_cycles fuse."""
        victim = sorted(
            {
                producer
                for (_, _, producer) in (
                    fig2_result.distributed_system().dependence_edges()
                )
            }
        )[0]
        system = inject(
            fig2_result.distributed_system(),
            DroppedPulseFault(producer_op=victim),
        )
        with pytest.raises(DeadlockError) as excinfo:
            simulate(
                system,
                fig2_result.bound,
                AllFastCompletion(),
                max_cycles=10_000,
            )
        assert "quiescent" in str(excinfo.value)
        assert excinfo.value.cycle < 100

    def test_context_is_machine_readable(self, fig2_result):
        victim = sorted(
            {
                producer
                for (_, _, producer) in (
                    fig2_result.distributed_system().dependence_edges()
                )
            }
        )[0]
        system = inject(
            fig2_result.distributed_system(),
            DroppedPulseFault(producer_op=victim),
        )
        with pytest.raises(DeadlockError) as excinfo:
            simulate(system, fig2_result.bound, AllFastCompletion())
        context = excinfo.value.context()
        assert context["pending_ops"]
        assert context["controller_states"]
        assert context["starved_edges"]
        import json

        json.dumps(context)  # must serialize

    def test_no_false_positive_on_wraparound_pipelining(self):
        """Independent 1-cycle ops under overlapped iterations complete and
        restart every cycle at a fixed configuration — progress with a
        repeating config must not trip the quiescence watchdog."""
        from repro.core.builder import DFGBuilder

        b = DFGBuilder("spin")
        x = b.input("x")
        b.mul("m1", x, x)
        b.mul("m2", x, x)
        s = b.add("s", x, x)
        b.output("y", s)
        result = synthesize(b.build(), "mul:2T,add:1")
        sim = simulate(
            result.distributed_system(),
            result.bound,
            AllFastCompletion(),
            iterations=6,
        )
        assert len(sim.iteration_finish_cycles) == 6


class TestTimingMonitor:
    def test_premature_completion_names_op_and_unit(self, fig3_result):
        system = inject(
            fig3_result.distributed_system(),
            StuckCompletionFault(unit="TM1", value=True),
        )
        with pytest.raises(ProtocolError) as excinfo:
            simulate(system, fig3_result.bound, AllSlowCompletion())
        assert excinfo.value.kind == "timing"
        assert excinfo.value.unit == "TM1"
        assert excinfo.value.op is not None
        assert excinfo.value.cycle is not None


class TestHandshakeMonitor:
    def test_overruns_are_legal_by_default(self, fir5_result):
        """Overlapped iterations legally re-pulse latched edges; the
        default configuration only counts them."""
        result = simulate(
            fir5_result.distributed_system(),
            fir5_result.bound,
            AllFastCompletion(),
            iterations=8,
        )
        assert result.token_overruns > 0

    def test_strict_mode_promotes_overruns(self, fir5_result):
        with pytest.raises(ProtocolError) as excinfo:
            simulate(
                fir5_result.distributed_system(),
                fir5_result.bound,
                AllFastCompletion(),
                iterations=8,
                monitors=MonitorConfig(handshake=True),
            )
        assert excinfo.value.kind == "overrun"
        assert excinfo.value.edges  # names the overrun latches

    def test_single_iteration_never_overruns(self, fig3_result):
        result = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            monitors=MonitorConfig(handshake=True),
        )
        assert result.token_overruns == 0


class TestMonitorConfig:
    def test_defaults_are_fault_free_safe(self):
        """Overruns are legal in fault-free overlapped runs, so the
        strict handshake monitor is off unless asked for."""
        assert not MonitorConfig().handshake

    def test_default_monitors_pass_clean_runs(self, fig3_result):
        """Every monitor on, handshake included: a clean single-iteration
        run finishes in the same cycles as with the defaults."""
        plain = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
        )
        strict = simulate(
            fig3_result.distributed_system(),
            fig3_result.bound,
            AllFastCompletion(),
            monitors=MonitorConfig(handshake=True),
        )
        assert plain.cycles == strict.cycles
