"""Property tests: the native kernel is bit-identical to the numpy loop.

On Hypothesis-drawn random DAG netlists (every cell type, constants
included) and arbitrary starting codes on *every* net -- not only
settled states -- one native pass must leave exactly the codes array
one numpy pass leaves, for the full evaluation order and for a cone
plan.  A third property re-settles a settled state after perturbing
one input, the access pattern of the SoC's cycle loop.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.glift import GATE_FUNCTIONS
from repro.logic.words import TWord
from repro.netlist.builder import CircuitBuilder, Sig
from repro.netlist.cells import CELL_LIBRARY
from repro.sim.compiled import CompiledCircuit

NUM_INPUTS = 5
CELLS = sorted(GATE_FUNCTIONS)


def build_random_dag(seed, num_gates):
    """A seeded random combinational DAG over every combinational cell
    type of the library (arities 1 to 4)."""
    rng = random.Random(seed)
    b = CircuitBuilder(f"prop{seed}")
    pool = [b.input(f"in{i}", 1)[0] for i in range(NUM_INPUTS)]
    pool += [b.bit0(), b.bit1()]
    for _ in range(num_gates):
        cell = rng.choice(CELLS)
        inputs = [rng.choice(pool) for _ in range(CELL_LIBRARY[cell].arity)]
        pool.append(b._emit(cell, inputs))
    b.output("out", Sig(pool[-4:]))
    return b.build()


def code_word(code):
    """A 1-bit TWord carrying exactly the given net code."""
    value, taint = code >> 1, code & 1
    if value == 2:
        return TWord(0, 1, taint, 1)
    return TWord(value, 0, taint, 1)


def _pair(netlist, codes=None):
    """(native circuit, its state, numpy circuit, its state)."""
    fast = CompiledCircuit(netlist, engine="dense")
    reference = CompiledCircuit(netlist, engine="numpy")
    fstate, rstate = fast.new_state(), reference.new_state()
    if codes is not None:
        fstate.codes[:] = codes
        rstate.codes[:] = codes
    return fast, fstate, reference, rstate


netlists = st.builds(
    build_random_dag, st.integers(0, 200), st.integers(5, 80)
)
input_codes = st.lists(
    st.sampled_from([0, 1, 2, 3, 4, 5]),
    min_size=NUM_INPUTS,
    max_size=NUM_INPUTS,
)


class TestBitIdentity:
    @given(netlist=netlists, codes_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_full_pass_matches_numpy(self, netlist, codes_seed):
        codes = np.random.default_rng(codes_seed).integers(
            0, 6, netlist.num_nets, dtype=np.uint8
        )
        fast, fstate, reference, rstate = _pair(netlist, codes)
        fast.eval_combinational(fstate)
        reference.eval_combinational(rstate)
        assert np.array_equal(fstate.codes, rstate.codes)

    @given(netlist=netlists, codes_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cone_plan_matches_numpy(self, netlist, codes_seed):
        codes = np.random.default_rng(codes_seed).integers(
            0, 6, netlist.num_nets, dtype=np.uint8
        )
        fast, fstate, reference, rstate = _pair(netlist, codes)
        fast.eval_plan(fstate, fast.cone_plan(["out"]))
        reference.eval_plan(rstate, reference.cone_plan(["out"]))
        assert np.array_equal(fstate.codes, rstate.codes)


class TestPropagationClosure:
    @given(
        seed=st.integers(0, 200),
        num_gates=st.integers(5, 80),
        initial=input_codes,
        which=st.integers(0, NUM_INPUTS - 1),
        new_code=st.sampled_from([0, 1, 2, 3, 4, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_input_perturbation_reaches_dense_fixpoint(
        self, seed, num_gates, initial, which, new_code
    ):
        """Settle natively, perturb one input, re-settle natively: the
        result is the fixpoint a fresh numpy pass computes."""
        netlist = build_random_dag(seed, num_gates)
        fast, fstate, reference, rstate = _pair(netlist)
        for i, code in enumerate(initial):
            fast.set_input(fstate, f"in{i}", code_word(code))
        fast.eval_combinational(fstate)

        fast.set_input(fstate, f"in{which}", code_word(new_code))
        fast.eval_combinational(fstate)

        final = list(initial)
        final[which] = new_code
        for i, code in enumerate(final):
            reference.set_input(rstate, f"in{i}", code_word(code))
        reference.eval_combinational(rstate)

        assert np.array_equal(fstate.codes, rstate.codes)
