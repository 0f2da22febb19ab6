"""Fused port passes: ``inputs=`` / ``outputs=`` on the eval entry points.

On the native kernel one C call scatters the input ports, evaluates and
gathers the output ports.  The Python packers (``_scatter_word`` /
``_gather_word``, which the numpy engine and the diagnostic modes run)
are the oracle: the C packers must write the same codes and read back
the same words for every width and every ternary/taint pattern, and a
fused pass on ``dense`` must match ``set_input`` -> pass ->
``read_output`` on ``numpy``.  Without a compiler ``dense`` falls back
to the Python packers and these tests compare them with themselves.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder
from repro.obs import Observer, observe
from repro.sim import native
from repro.sim.compiled import ENGINES, CompiledCircuit
from repro.sim.runner import GateRunner
from repro.sim.soc import INTERFACE_PORTS
from repro.workloads.registry import BENCHMARKS

from tests.sim.test_event_properties import NUM_INPUTS, code_word, netlists


def echo_circuit(width):
    """Input port ``a`` exposed unchanged as output port ``echo``."""
    builder = CircuitBuilder(f"echo{width}")
    builder.output("echo", builder.input("a", width))
    return CompiledCircuit(builder.build(), engine="dense")


@st.composite
def words(draw):
    width = draw(st.integers(1, 16))
    fields = st.integers(0, (1 << width) - 1)
    return TWord(draw(fields), draw(fields), draw(fields), width)


class TestPackers:
    @given(word=words())
    @settings(max_examples=300, deadline=None)
    def test_scatter_then_gather_matches_python(self, word):
        circuit = echo_circuit(word.width)
        fused, reference = circuit.new_state(), circuit.new_state()
        (echoed,) = circuit.eval_combinational(
            fused, inputs={"a": word}, outputs=("echo",)
        )
        nets = circuit._input_arrays["a"]
        circuit._scatter_word(reference, nets, word)
        assert np.array_equal(fused.codes, reference.codes)
        assert echoed == circuit._gather_word(reference, nets) == word

    @given(
        codes=st.lists(st.integers(0, 255), min_size=1, max_size=16)
    )
    @settings(max_examples=300, deadline=None)
    def test_gather_of_any_codes_matches_python(self, codes):
        """Out-of-range codes too: no row reads the echoed nets, so
        both packers must decode them the same way."""
        circuit = echo_circuit(len(codes))
        state = circuit.new_state()
        nets = circuit._output_arrays["echo"]
        state.codes[nets] = codes
        (gathered,) = circuit.eval_combinational(state, outputs=("echo",))
        assert gathered == circuit._gather_word(state, nets)

    def test_wide_ports_use_the_python_packers(self):
        """A port wider than the kernel's 64-bit words still works."""
        width = native.MAX_PORT_WIDTH + 8
        circuit = echo_circuit(width)
        word = TWord((1 << width) - 3, 1 << 70, 5 << 60, width)
        (echoed,) = circuit.eval_combinational(
            circuit.new_state(), inputs={"a": word}, outputs=("echo",)
        )
        assert echoed == word

    @pytest.mark.parametrize("engine", ENGINES)
    def test_width_mismatch_is_rejected_like_set_input(self, engine):
        builder = CircuitBuilder("echo")
        builder.output("echo", builder.input("a", 4))
        circuit = CompiledCircuit(builder.build(), engine=engine)
        with pytest.raises(ValueError, match="port a is 4 bits, got 3"):
            circuit.eval_combinational(
                circuit.new_state(), inputs={"a": TWord(0, 0, 0, 3)},
                outputs=("echo",),
            )
        with pytest.raises(KeyError):
            circuit.eval_combinational(
                circuit.new_state(), outputs=("no_such_port",)
            )

    def test_threads_sharing_a_circuit_keep_their_own_words(self):
        """The kernel runs without the GIL, so each pass needs its own
        port-word buffer: threads echoing different words through one
        circuit must each get their own back."""
        circuit = echo_circuit(16)
        failures = []

        def echo(value):
            state = circuit.new_state()
            word = TWord(value, 0, value >> 8, 16)
            for _ in range(1000):
                (echoed,) = circuit.eval_combinational(
                    state, inputs={"a": word}, outputs=("echo",)
                )
                if echoed != word:
                    failures.append((word, echoed))
                    return

        threads = [
            threading.Thread(target=echo, args=(value,))
            for value in (0x1234, 0xABCD, 0x0F0F, 0x8001)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def _random_inputs(data):
    chosen = data.draw(
        st.lists(st.integers(0, NUM_INPUTS - 1), unique=True, max_size=3)
    )
    return {
        f"in{index}": code_word(data.draw(st.integers(0, 5)))
        for index in chosen
    }


class TestFusedPasses:
    @given(netlist=netlists, seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fused_passes_match_numpy(self, netlist, seed, data):
        codes = np.random.default_rng(seed).integers(
            0, 6, netlist.num_nets, dtype=np.uint8
        )
        results = []
        for engine in ENGINES:
            circuit = CompiledCircuit(netlist, engine=engine)
            state = circuit.new_state()
            state.codes[:] = codes
            results.append((circuit, state))
        for _ in range(3):
            inputs = _random_inputs(data)
            outputs = data.draw(
                st.sampled_from([(), ("out",), ("out", "out")])
            )
            full = data.draw(st.booleans())
            words = []
            for circuit, state in results:
                if full:
                    words.append(circuit.eval_combinational(
                        state, inputs=inputs, outputs=outputs
                    ))
                else:
                    words.append(circuit.eval_plan(
                        state, circuit.cone_plan(["out"]),
                        inputs=inputs, outputs=outputs,
                    ))
            (fast, fstate), (reference, rstate) = results
            assert words[0] == words[1]
            assert len(words[0]) == len(outputs)
            assert np.array_equal(fstate.codes, rstate.codes)

    def test_port_tables_are_built_lazily_and_memoised(self):
        circuit = echo_circuit(4)
        assert getattr(circuit, "_port_passes", None) is None
        state = circuit.new_state()
        for value in range(3):
            circuit.eval_combinational(
                state, inputs={"a": TWord.const(value, 4)},
                outputs=("echo",),
            )
        if native.kernel() is not None:
            assert len(circuit._port_passes) == 1


class TestSoCCounters:
    CYCLES = 50

    @pytest.mark.parametrize("engine", ENGINES)
    def test_gate_eval_counters_per_cycle(self, engine):
        """Two counted passes per cycle: the interface cone, then the
        full order -- the same on both engines, fused or not."""
        circuit = compiled_cpu(engine)
        info = BENCHMARKS["mult"]
        runner = GateRunner(circuit, assemble(info.service_source))
        observer = Observer()
        with observe(observer):
            for _ in range(self.CYCLES):
                runner.step()
        counters = observer.snapshot()["metrics"]["counters"]
        plan_by_type, plan_total = circuit._totals_of_plan(
            circuit.cone_plan(INTERFACE_PORTS)
        )
        assert counters["sim.eval_passes"] == 2 * self.CYCLES
        assert counters["sim.gate_evals"] == self.CYCLES * (
            plan_total + circuit._total_gates
        )
        for cell_type, count in circuit._gates_by_type.items():
            assert counters[f"sim.gate_evals.{cell_type}"] == (
                self.CYCLES * (count + plan_by_type.get(cell_type, 0))
            )
