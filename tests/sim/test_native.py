"""The native kernel's build cache, its fallback, and malformed codes."""

import shutil
import warnings

import numpy as np
import pytest

from repro.netlist.builder import CircuitBuilder
from repro.resilience import MalformedCodesError
from repro.sim import native
from repro.sim.compiled import ENGINES, CompiledCircuit

HAS_COMPILER = any(shutil.which(name) for name in native.COMPILERS)


def _readonly(codes):
    codes.flags.writeable = False
    return codes


def and_circuit(engine):
    """``out = AND2(a, b)``, ``inverted = NOT(out)`` and a register."""
    builder = CircuitBuilder("and")
    a = builder.input("a", 1)
    b = builder.input("b", 1)
    out = builder.and_(a, b)
    reg = builder.reg("q", 1)
    builder.drive(reg, out)
    builder.output("out", out)
    builder.output("inverted", builder.not_(out))
    return CompiledCircuit(builder.build(), engine=engine)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An empty library cache and no kernel loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_kernel", None)
    return tmp_path / "repro"


class TestBuildCache:
    @pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
    def test_builds_once_into_the_keyed_cache(self, fresh_kernel):
        assert native.kernel() is not None
        built = sorted(path.name for path in fresh_kernel.iterdir())
        # Only the renamed library is left: no temporary build files.
        assert built == [native.library_name()]

    def test_missing_compiler_falls_back_with_one_warning(
        self, fresh_kernel, monkeypatch
    ):
        monkeypatch.setattr(native, "COMPILERS", ("repro-no-such-cc",))
        fast, reference = and_circuit("dense"), and_circuit("numpy")
        fstate, rstate = fast.new_state(), reference.new_state()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for code_a, code_b in ((0, 3), (5, 2), (3, 3)):
                for circuit, state in ((fast, fstate),
                                       (reference, rstate)):
                    state.codes[circuit.input_nets("a")[0]] = code_a
                    state.codes[circuit.input_nets("b")[0]] = code_b
                    circuit.eval_combinational(state)
                    circuit.clock_edge(state)
                assert np.array_equal(fstate.codes, rstate.codes)
        kernel_warnings = [
            w for w in caught
            if issubclass(w.category, native.NativeKernelWarning)
        ]
        assert len(kernel_warnings) == 1
        assert "repro-no-such-cc" in str(kernel_warnings[0].message)
        assert native.kernel() is None


class TestMalformedCodes:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_range_input_code_is_typed(self, engine):
        """Codes (0, 10) into an AND2 pack to index 10, a valid LUT
        slot: without the check the gate silently reads entry 10."""
        circuit = and_circuit(engine)
        state = circuit.new_state()
        net_b = circuit.input_nets("b")[0]
        state.codes[circuit.input_nets("a")[0]] = 0
        state.codes[net_b] = 10
        with pytest.raises(MalformedCodesError) as excinfo:
            circuit.eval_combinational(state)
        error = excinfo.value
        assert error.code == "MALFORMED_CODES"
        assert not error.retriable
        assert error.context["net"] == net_b
        assert error.context["net_code"] == 10

    def test_both_backends_name_the_same_row(self):
        contexts = []
        for engine in ENGINES:
            circuit = and_circuit(engine)
            state = circuit.new_state()
            state.codes[circuit.input_nets("a")[0]] = 200
            with pytest.raises(MalformedCodesError) as excinfo:
                circuit.eval_plan(state, circuit.cone_plan(["out"]))
            contexts.append(excinfo.value.context)
        assert contexts[0] == contexts[1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bad_code_on_a_gate_output_is_overwritten(self, engine):
        """A gate output is rewritten before the NOT gate reads it, so
        a stale bad code there is not an error on either backend."""
        circuit = and_circuit(engine)
        state = circuit.new_state()
        out = circuit.output_nets("out")[0]
        state.codes[out] = 9
        circuit.eval_combinational(state)
        assert state.codes[out] <= native.MAX_CODE

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda codes: codes.astype(np.int64),
            lambda codes: codes[:-1].copy(),
            lambda codes: np.repeat(codes, 2)[::2],
            _readonly,
        ],
        ids=["dtype", "length", "strided", "readonly"],
    )
    def test_malformed_codes_array_is_typed(self, engine, mangle):
        circuit = and_circuit(engine)
        state = circuit.new_state()
        state.codes = mangle(state.codes)
        with pytest.raises(MalformedCodesError):
            circuit.eval_combinational(state)

    @pytest.mark.parametrize(
        "snapshot",
        [
            np.array([6], dtype=np.uint8),
            np.array([2], dtype=np.int64),
            np.array([2, 2], dtype=np.uint8),
            [2],
        ],
        ids=["code", "dtype", "shape", "list"],
    )
    def test_set_dff_state_validates(self, snapshot):
        circuit = and_circuit("dense")
        state = circuit.new_state()
        before = state.codes.copy()
        with pytest.raises(MalformedCodesError):
            circuit.set_dff_state(state, snapshot)
        assert np.array_equal(state.codes, before)

    def test_set_dff_state_accepts_every_valid_code(self):
        circuit = and_circuit("dense")
        state = circuit.new_state()
        for code in range(native.MAX_CODE + 1):
            circuit.set_dff_state(state, np.array([code], dtype=np.uint8))
            assert circuit.dff_state(state)[0] == code

