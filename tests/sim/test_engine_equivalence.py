"""Native vs numpy engine: lockstep differential tests.

The native kernel's contract is *bit-identical* results to the numpy
reference loop -- not "close", not "equivalent verdicts": the same
codes array after every pass, the same violations, the same report
text.  These tests enforce that contract at three granularities:

* SoC lockstep: two :class:`GateRunner`\\ s over the same workload,
  stepped cycle by cycle with the full 3027-net codes array and every
  port word the two fused passes gather compared after every cycle,
  for every Table 1 workload and for the naive (ablation) taint
  tables.
* Analysis equivalence: full :class:`TaintTracker` runs (verdict,
  violation tuples, every stats counter, normalized report text),
  including across checkpoint/save/resume and under ``jobs=2``.
* Random netlists: seeded random DAG circuits driven with random
  ternary/tainted input sequences, native vs numpy codes compared after
  every combinational settle and clock edge.

A pickle round-trip regression pins the ``_DERIVED_CACHES`` audit:
the native row tables cache this process's array addresses and must
not survive a pickle boundary.

"dense" is the native engine wherever a C compiler is available; the
first test fails loudly if it is not, so a silent fallback cannot turn
this suite into numpy-vs-numpy.  (CI's no-compiler leg runs the rest
of ``tests/sim`` on the fallback.)
"""

import dataclasses
import pickle
import random
import re
import shutil

import numpy as np
import pytest

from repro.core import TaintTracker
from repro.cpu import compiled_cpu
from repro.cpu.build import build_cpu
from repro.isa.assembler import assemble
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder, Sig
from repro.resilience import (
    AnalysisInterrupted,
    Checkpointer,
    read_checkpoint,
)
from repro.sim import native
from repro.sim.compiled import CompiledCircuit
from repro.sim.runner import GateRunner
from repro.workloads.registry import BENCHMARKS, TABLE2_VIOLATORS

HAS_COMPILER = any(shutil.which(name) for name in native.COMPILERS)


def _program(name):
    info = BENCHMARKS[name]
    return assemble(info.service_source, name=name)


def _normalize(report):
    """Report text minus the one legitimately nondeterministic field."""
    return re.sub(r"wall=\S+", "wall=<t>", report)


LOCKSTEP_CYCLES = 400


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
def test_native_kernel_is_loaded():
    assert native.kernel() is not None


def _record_gathered(monkeypatch, circuits):
    """Per circuit, the port words every evaluation pass returns."""
    gathered = {id(circuit): [] for circuit in circuits}
    for method in ("eval_plan", "eval_combinational"):
        original = getattr(CompiledCircuit, method)

        def recording(self, *args, _original=original, **kwargs):
            words = _original(self, *args, **kwargs)
            gathered.setdefault(id(self), []).append(words)
            return words

        monkeypatch.setattr(CompiledCircuit, method, recording)
    return [gathered[id(circuit)] for circuit in circuits]


def _lockstep(name, native_circuit, numpy_circuit, monkeypatch):
    """Codes and every gathered port word compared after each cycle."""
    program = _program(name)
    fast_words, reference_words = _record_gathered(
        monkeypatch, (native_circuit, numpy_circuit)
    )
    fast = GateRunner(native_circuit, program)
    reference = GateRunner(numpy_circuit, program)
    for cycle in range(LOCKSTEP_CYCLES):
        fast_words.clear()
        reference_words.clear()
        fast.step()
        reference.step()
        assert np.array_equal(
            fast.soc.state.codes, reference.soc.state.codes
        ), f"{name}: codes diverged at cycle {cycle}"
        # Two passes per cycle, three ports gathered by each.
        assert [len(words) for words in fast_words] == [3, 3]
        assert fast_words == reference_words, (
            f"{name}: gathered port words diverged at cycle {cycle}"
        )


class TestSoCLockstep:
    """Cycle-by-cycle codes and port-word equality on every Table 1
    workload."""

    @pytest.mark.parametrize(
        "name", [name for name in BENCHMARKS if name != "mult"]
    )
    def test_codes_bit_identical(self, name, monkeypatch):
        _lockstep(
            name, compiled_cpu("dense"), compiled_cpu("numpy"), monkeypatch
        )

    def test_codes_bit_identical_nonforking(self, monkeypatch):
        """mult, the single-path kernel the straight-line perf
        workload leans on."""
        _lockstep(
            "mult", compiled_cpu("dense"), compiled_cpu("numpy"), monkeypatch
        )

    def test_naive_taint_tables_bit_identical(self, monkeypatch):
        """The ablation's value-blind LUTs go through the same rows."""
        netlist = build_cpu()
        _lockstep(
            "intAVG",
            CompiledCircuit(netlist, taint_mode="naive", engine="dense"),
            CompiledCircuit(netlist, taint_mode="naive", engine="numpy"),
            monkeypatch,
        )


#: Full-analysis results are expensive (seconds per engine); share them
#: across the verdict/violations/report assertions of this module.
_RESULT_CACHE = {}


def _analysis(name, engine):
    key = (name, engine)
    if key not in _RESULT_CACHE:
        tracker = TaintTracker(
            _program(name), circuit=compiled_cpu(engine)
        )
        _RESULT_CACHE[key] = tracker.run()
    return _RESULT_CACHE[key]


def _stats(result):
    """Every stats counter except the wall clock."""
    stats = dataclasses.asdict(result.stats)
    stats.pop("wall_seconds")
    return stats


class TestAnalysisEquivalence:
    """Full TaintTracker runs must be indistinguishable per engine."""

    @pytest.mark.parametrize("name", TABLE2_VIOLATORS)
    def test_verdict_violations_report(self, name):
        reference = _analysis(name, "numpy")
        fast = _analysis(name, "dense")
        assert fast.verdict == reference.verdict
        assert list(fast.violations) == list(reference.violations)
        assert _stats(fast) == _stats(reference)
        assert _normalize(fast.report()) == _normalize(reference.report())


FORKY = """
.task sys trusted
start:
    mov &P3IN, r4
    bit #1, r4
    jz even
    mov #1, &P2OUT
    halt
even:
    mov #2, &P2OUT
    halt
"""


def _forky_tracker(engine, **kwargs):
    program = assemble(FORKY, name="forky")
    return TaintTracker(
        program, circuit=compiled_cpu(engine), **kwargs
    )


class TestCheckpointEquivalence:
    """Interrupt the native analysis, resume it, and compare the
    stitched result against an uninterrupted numpy baseline."""

    def _interrupt_after(self, tracker, paths):
        original = tracker._explore_path
        fired = []

        def wrapper(*args, **kwargs):
            original(*args, **kwargs)
            if not fired and tracker.stats.paths >= paths:
                fired.append(True)
                tracker.request_interrupt("test")

        tracker._explore_path = wrapper
        return tracker

    def test_resume_matches_dense_baseline(self, tmp_path):
        reference = _forky_tracker("numpy").run()

        ckpt = tmp_path / "native.ckpt"
        interrupted = self._interrupt_after(
            _forky_tracker("dense", checkpointer=Checkpointer(ckpt)),
            paths=1,
        )
        with pytest.raises(AnalysisInterrupted):
            interrupted.run()
        assert ckpt.exists()

        fresh = _forky_tracker("dense")
        payload = read_checkpoint(ckpt, fresh.config_digest())
        fresh.restore_checkpoint(payload)
        resumed = fresh.run()

        assert resumed.verdict == reference.verdict
        assert list(resumed.violations) == list(reference.violations)
        assert resumed.stats.paths == reference.stats.paths
        assert _normalize(resumed.report()) == _normalize(reference.report())

    def test_table1_resume_matches(self, tmp_path):
        """The same interrupt/resume stitch on a real forking workload."""
        name = "binSearch"
        reference = _analysis(name, "numpy")

        ckpt = tmp_path / "table1.ckpt"
        interrupted = self._interrupt_after(
            TaintTracker(
                _program(name),
                circuit=compiled_cpu("dense"),
                checkpointer=Checkpointer(ckpt),
            ),
            paths=2,
        )
        with pytest.raises(AnalysisInterrupted):
            interrupted.run()

        fresh = TaintTracker(
            _program(name), circuit=compiled_cpu("dense")
        )
        payload = read_checkpoint(ckpt, fresh.config_digest())
        fresh.restore_checkpoint(payload)
        resumed = fresh.run()

        assert resumed.verdict == reference.verdict
        assert list(resumed.violations) == list(reference.violations)
        assert _normalize(resumed.report()) == _normalize(reference.report())


class TestParallelEquivalence:
    """--jobs parallel exploration must stay engine-agnostic."""

    def test_jobs2_matches_dense_serial(self):
        name = "tHold"
        reference = _analysis(name, "numpy")
        parallel = TaintTracker(
            _program(name), circuit=compiled_cpu("dense"), jobs=2
        ).run()
        assert parallel.verdict == reference.verdict
        assert list(parallel.violations) == list(reference.violations)
        assert _stats(parallel) == _stats(reference)
        assert _normalize(parallel.report()) == _normalize(
            reference.report()
        )


# ---------------------------------------------------------------------------
# Random netlists
# ---------------------------------------------------------------------------
def random_netlist(seed, num_inputs=5, num_regs=4, num_gates=60):
    """A seeded random layered DAG with registers and a reset."""
    rng = random.Random(seed)
    b = CircuitBuilder(f"rand{seed}")
    rst = b.input("rst", 1)[0]
    pool = [b.input(f"in{i}", 1)[0] for i in range(num_inputs)]
    regs = [b.reg(f"r{i}", 1) for i in range(num_regs)]
    pool += [r.q[0] for r in regs]
    pool += [b.bit0(), b.bit1()]
    for _ in range(num_gates):
        op = rng.choice(
            ("not", "and", "or", "xor", "xnor", "nand", "nor", "mux")
        )
        a, c, d = (rng.choice(pool) for _ in range(3))
        if op == "not":
            out = b.not_bit(a)
        elif op == "and":
            out = b.and_bit(a, c)
        elif op == "or":
            out = b.or_bit(a, c)
        elif op == "xor":
            out = b.xor_bit(a, c)
        elif op == "xnor":
            out = b.xnor_bit(a, c)
        elif op == "nand":
            out = b.nand_bit(a, c)
        elif op == "nor":
            out = b.nor_bit(a, c)
        else:
            out = b.mux_bit(a, c, d)
        pool.append(out)
    for reg in regs:
        b.drive(reg, Sig([rng.choice(pool)]), rst=rst)
    b.output("out", Sig([rng.choice(pool) for _ in range(4)]))
    return b.build()


def _random_word(rng):
    """A random 1-bit ternary word, sometimes tainted, sometimes X."""
    roll = rng.random()
    if roll < 0.2:
        return TWord(0, 1, rng.randrange(2), 1)  # unknown
    return TWord(rng.randrange(2), 0, rng.randrange(2), 1)


def _drive_lockstep(fast, reference, rng, cycles, inputs=5):
    """Random inputs into both circuits; codes compared after every
    settle and every clock edge."""
    fstate, rstate = fast.new_state(), reference.new_state()
    for cycle in range(cycles):
        rst = TWord.const(1 if cycle == 0 else 0, 1)
        fast.set_input(fstate, "rst", rst)
        reference.set_input(rstate, "rst", rst)
        # Change a random subset of inputs (sometimes none).
        for index in range(inputs):
            if rng.random() < 0.6:
                word = _random_word(rng)
                fast.set_input(fstate, f"in{index}", word)
                reference.set_input(rstate, f"in{index}", word)
        fast.eval_combinational(fstate)
        reference.eval_combinational(rstate)
        assert np.array_equal(fstate.codes, rstate.codes), (
            f"diverged after eval, cycle {cycle}"
        )
        fast.clock_edge(fstate)
        reference.clock_edge(rstate)
        fast.eval_combinational(fstate)
        reference.eval_combinational(rstate)
        assert np.array_equal(fstate.codes, rstate.codes), (
            f"diverged after clock edge, cycle {cycle}"
        )
    return fstate, rstate


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", range(8))
    def test_lockstep_on_random_dag(self, seed):
        netlist = random_netlist(seed)
        _drive_lockstep(
            CompiledCircuit(netlist, engine="dense"),
            CompiledCircuit(netlist, engine="numpy"),
            random.Random(1000 + seed),
            cycles=40,
        )


# ---------------------------------------------------------------------------
# Pickle round-trip (the _DERIVED_CACHES audit)
# ---------------------------------------------------------------------------
class TestPickleRoundTrip:
    def test_derived_caches_do_not_cross_pickle(self):
        netlist = random_netlist(3)
        circuit = CompiledCircuit(netlist, engine="dense")
        state = circuit.new_state()
        circuit.set_input(state, "rst", TWord.const(0, 1))
        for i in range(5):
            circuit.set_input(state, f"in{i}", TWord.const(i & 1, 1))
        circuit.eval_plan(state, circuit.cone_plan(["out"]))
        circuit.eval_combinational(
            state, inputs={"in0": TWord.const(1, 1)}, outputs=("out",)
        )
        # The lazy caches exist in the source process...
        assert getattr(circuit, "_row_tables", None) is not None
        if native.kernel() is not None:
            assert getattr(circuit, "_port_passes", None)

        clone = pickle.loads(pickle.dumps(circuit))
        # ...and must be absent after the round trip: they hold this
        # process's object ids and array addresses.
        for name in CompiledCircuit._DERIVED_CACHES:
            assert getattr(clone, name, None) is None, name
        assert clone._plan_totals == {}
        assert clone._counter_cache == {}
        assert clone.engine == "dense"

    def test_pickled_circuit_still_bit_identical(self):
        netlist = random_netlist(4)
        warm = CompiledCircuit(netlist, engine="dense")
        warm.eval_combinational(warm.new_state())  # build row tables
        _drive_lockstep(
            pickle.loads(pickle.dumps(warm)),
            CompiledCircuit(netlist, engine="numpy"),
            random.Random(99),
            cycles=20,
        )

    def test_circuit_state_survives_pickle(self):
        """A CircuitState pickled mid-run resumes bit-identically through
        fused passes: all of its state is the codes array.  The source
        state's cached kernel address must not come along -- a pass on
        the clone would write through it into the source's array."""
        netlist = random_netlist(5)
        fast = CompiledCircuit(netlist, engine="dense")
        reference = CompiledCircuit(netlist, engine="numpy")
        rng = random.Random(7)
        fstate, rstate = _drive_lockstep(fast, reference, rng, cycles=3)
        fast.eval_combinational(fstate)  # caches fstate's address
        source = fstate.codes.copy()
        assert np.array_equal(source, rstate.codes)

        for resumed in (pickle.loads(pickle.dumps(fstate)), fstate.copy()):
            expected = rstate.copy()
            for cycle in range(10):
                word = _random_word(rng)
                words = fast.eval_combinational(
                    resumed, inputs={"in0": word}, outputs=("out",)
                )
                assert words == reference.eval_combinational(
                    expected, inputs={"in0": word}, outputs=("out",)
                )
                fast.clock_edge(resumed)
                reference.clock_edge(expected)
                fast.eval_plan(
                    resumed, fast.cone_plan(["out"]), outputs=("out",)
                )
                reference.eval_plan(
                    expected, reference.cone_plan(["out"]),
                    outputs=("out",),
                )
                assert np.array_equal(resumed.codes, expected.codes), (
                    f"resumed state diverged at cycle {cycle}"
                )
        assert np.array_equal(fstate.codes, source)
