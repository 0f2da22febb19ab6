"""Compiled gate-level GLIFT simulator.

A :class:`CompiledCircuit` turns a :class:`~repro.netlist.netlist.Netlist`
into vectorised evaluation kernels:

* the netlist is levelised once (:mod:`repro.netlist.levelize`);
* within each level, gates are grouped by cell type;
* each cell type's full ternary+taint behaviour -- the GLIFT semantics of
  :func:`repro.logic.glift.glift_eval` -- is baked into a lookup table over
  per-net *codes*.

A net's code packs its ternary value and taint into one byte::

    code = value * 2 + taint        # value in {0, 1, X=2}, taint in {0, 1}

so a k-input gate's LUT has ``6**k`` entries, and evaluating a group of N
same-type gates is one gather ``lut[idx]`` over an N-vector of base-6 packed
input codes.

Two engines evaluate those levels (DESIGN.md section 13):

* ``engine="dense"`` (the default) flattens each evaluation order into
  per-gate rows and runs them through the native C kernel of
  :mod:`repro.sim.native`;
* ``engine="numpy"`` runs the numpy loop above: the differential oracle
  the native kernel is lockstep-tested against
  (``tests/sim/test_engine_equivalence.py``).  The dense engine also
  falls back to it when no C compiler is available, and in the paid
  diagnostic modes (provenance recording, perf attribution).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.logic.glift import GATE_FUNCTIONS, glift_eval
from repro.logic.ternary import UNKNOWN
from repro.logic.words import TWord
from repro.netlist.cells import CONSTANT_CELLS
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Netlist
from repro.obs import get_observer
from repro.obs.perf import get_perf
from repro.obs.provenance import get_recorder
from repro.resilience.errors import MalformedCodesError
from repro.sim import native

#: Codes for common states.
CODE_0 = 0  # value 0, untainted
CODE_1 = 2  # value 1, untainted
CODE_X = 4  # value X, untainted

#: The evaluation engines :class:`CompiledCircuit` supports.
ENGINES = ("dense", "numpy")

_UINT8 = np.dtype(np.uint8)


def code_of(value: int, taint: int) -> int:
    """Pack a ternary value and a taint bit into a net code."""
    return value * 2 + taint


def decode_code(code: int) -> Tuple[int, int]:
    """Unpack a net code into ``(ternary value, taint)``."""
    return code >> 1, code & 1


def unpack_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`decode_code`: ``(values, taints)`` arrays.

    Values are ternary (0, 1, or 2 for X); taints are 0/1.  Used by the
    timeline scrub API and viewer, which reconstruct whole code arrays
    per frame.
    """
    return codes >> 1, codes & 1


def _lut_for(cell_type: str, taint_mode: str = "glift") -> np.ndarray:
    """Exhaustive taint lookup table for one cell type, indexed base-6.

    ``taint_mode="glift"`` uses the value-aware semantics of
    :func:`repro.logic.glift.glift_eval` (the paper's Figure 1);
    ``taint_mode="naive"`` uses conservative DIFT-style propagation --
    the output is tainted whenever *any* input is -- used by the ablation
    study to show why value-awareness is load-bearing (a naive tracker
    can never verify the masking repair: AND with an untainted constant
    would stay tainted).
    """
    func = GATE_FUNCTIONS[cell_type]
    arity = 1 if cell_type in ("BUF", "NOT") else (
        3 if cell_type == "MUX2" else int(cell_type[-1])
    )
    lut = np.zeros(6 ** arity, dtype=np.uint8)
    for codes in itertools.product(range(6), repeat=arity):
        values = [c >> 1 for c in codes]
        taints = [c & 1 for c in codes]
        index = 0
        for code in codes:
            index = index * 6 + code
        value, taint = glift_eval(func, values, taints)
        if taint_mode == "naive":
            taint = 1 if any(taints) else 0
        elif taint_mode != "glift":
            raise ValueError(f"unknown taint mode {taint_mode!r}")
        lut[index] = code_of(value, taint)
    return lut


_LUT_CACHE: Dict[Tuple[str, str], np.ndarray] = {}


def _cached_lut(cell_type: str, taint_mode: str = "glift") -> np.ndarray:
    key = (cell_type, taint_mode)
    if key not in _LUT_CACHE:
        _LUT_CACHE[key] = _lut_for(cell_type, taint_mode)
    return _LUT_CACHE[key]


@dataclass
class _Group:
    """All gates of one cell type within one level."""

    lut: np.ndarray
    inputs: List[np.ndarray]  # arity arrays of net ids
    outputs: np.ndarray
    cell_type: str = ""


def _eval_levels(
    codes: np.ndarray, levels: List[List[_Group]], slots=None
) -> None:
    """The numpy loop: one base-6 LUT gather per (level, cell type) group.

    With *slots* (perf attribution) each group's wall time is added to
    ``slots[level][group][0]``.
    """
    for level_index, groups in enumerate(levels):
        for group_index, group in enumerate(groups):
            if slots is not None:
                group_start = perf_counter()
            index = codes[group.inputs[0]].astype(np.int32)
            for column in group.inputs[1:]:
                index *= 6
                index += codes[column]
            codes[group.outputs] = group.lut[index]
            if slots is not None:
                slots[level_index][group_index][0] += (
                    perf_counter() - group_start
                )


class CircuitState:
    """Per-net codes for one simulation state (mutable, cheap to copy).

    The native kernel needs the codes array's data pointer on every
    pass, and ``ndarray.ctypes.data`` costs about as much as the pass's
    other Python glue, so :meth:`_data_address` caches it beside the
    array it belongs to.  The pointer is this process's: a copy or an
    unpickled state starts without it.
    """

    __slots__ = ("codes", "_address")

    def __init__(self, codes: np.ndarray):
        self.codes = codes
        self._address = None

    def copy(self) -> "CircuitState":
        return CircuitState(self.codes.copy())

    def _data_address(self) -> int:
        """The data pointer of :attr:`codes` (cached per array object)."""
        cached = self._address
        if cached is None or cached[0] is not self.codes:
            cached = self._address = (self.codes, self.codes.ctypes.data)
        return cached[1]

    def __getstate__(self) -> dict:
        return {"codes": self.codes}

    def __setstate__(self, state: dict) -> None:
        self.codes = state["codes"]
        self._address = None


class CompiledCircuit:
    """A netlist compiled for fast ternary+taint cycle simulation."""

    def __init__(
        self,
        netlist: Netlist,
        taint_mode: str = "glift",
        engine: str = "dense",
    ):
        netlist.validate()
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.netlist = netlist
        self.taint_mode = taint_mode
        self.engine = engine
        self.num_nets = netlist.num_nets

        self._const_nets: List[int] = []
        self._const_codes: List[int] = []
        for gate in netlist.gates:
            if gate.cell_type in CONSTANT_CELLS:
                self._const_nets.append(gate.output)
                self._const_codes.append(
                    CODE_1 if gate.cell_type == "TIE1" else CODE_0
                )
        self._const_nets_arr = np.array(self._const_nets, dtype=np.int64)
        self._const_codes_arr = np.array(self._const_codes, dtype=np.uint8)

        self._levels: List[List[_Group]] = []
        with get_observer().span("levelize"):
            for level in levelize(netlist)[1:]:
                by_type: Dict[str, List] = {}
                for gate in level:
                    by_type.setdefault(gate.cell_type, []).append(gate)
                groups = []
                for cell_type, gates in sorted(by_type.items()):
                    arity = len(gates[0].inputs)
                    inputs = [
                        np.array(
                            [g.inputs[position] for g in gates],
                            dtype=np.int64,
                        )
                        for position in range(arity)
                    ]
                    outputs = np.array(
                        [g.output for g in gates], dtype=np.int64
                    )
                    groups.append(
                        _Group(
                            _cached_lut(cell_type, taint_mode),
                            inputs,
                            outputs,
                            cell_type,
                        )
                    )
                self._levels.append(groups)

        #: per-cell-type gate totals for one full combinational pass,
        #: used by the gate-eval counters
        self._gates_by_type: Dict[str, int] = {}
        for groups in self._levels:
            for group in groups:
                self._gates_by_type[group.cell_type] = (
                    self._gates_by_type.get(group.cell_type, 0)
                    + len(group.outputs)
                )
        self._total_gates = sum(self._gates_by_type.values())
        #: cached per-plan gate totals, keyed by plan identity
        self._plan_totals: Dict[int, Tuple[Dict[str, int], int]] = {}
        #: cached (Counter, amount) increment lists keyed by
        #: (registry id, totals id) -- avoids name lookups per eval pass
        self._counter_cache: Dict[Tuple[int, int], list] = {}

        self._dff_q = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self._dff_d = np.array([d.d for d in netlist.dffs], dtype=np.int64)

        self._inputs = {p.name: p.nets for p in netlist.inputs}
        self._outputs = {p.name: p.nets for p in netlist.outputs}
        #: per-port net-id arrays for one-gather port reads/writes
        self._input_arrays = {
            name: np.array(nets, dtype=np.int64)
            for name, nets in self._inputs.items()
        }
        self._output_arrays = {
            name: np.array(nets, dtype=np.int64)
            for name, nets in self._outputs.items()
        }

    # ------------------------------------------------------------------
    # Pickling (parallel-worker support)
    # ------------------------------------------------------------------

    #: Derived attributes that must NOT ship across a pickle boundary:
    #: their keys are object ids from *this* process (meaningless and
    #: potentially colliding in a worker) or they embed its memory
    #: addresses (the native row tables cache array pointers for the
    #: kernel).  All are rebuilt lazily, so a worker pays at most one
    #: cheap reconstruction -- never a re-levelization.  Auditing note:
    #: every new id-keyed or lazily built cache added to this class
    #: belongs in this tuple; ``tests/sim/test_engine_equivalence.py``
    #: pins the round-trip.
    _DERIVED_CACHES = (
        "_prod_tables", "_row_tables", "_cone_plans", "_port_passes",
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_plan_totals"] = {}
        state["_counter_cache"] = {}
        for name in self._DERIVED_CACHES:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Defensive re-reset: tolerate documents pickled by older code
        # that did not strip a cache this version knows about.
        state["_plan_totals"] = {}
        state["_counter_cache"] = {}
        for name in self._DERIVED_CACHES:
            state.pop(name, None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def new_state(self) -> CircuitState:
        """Fresh state: every net (including all flip-flops) untainted X.

        This is Algorithm 1 line 2: "initialize all memory cells and all
        gates in design_netlist to untainted X".
        """
        codes = np.full(self.num_nets, CODE_X, dtype=np.uint8)
        return CircuitState(codes)

    def dff_state(self, state: CircuitState) -> np.ndarray:
        """The flip-flop snapshot (copy) -- the circuit's true state."""
        return state.codes[self._dff_q].copy()

    def set_dff_state(self, state: CircuitState, snapshot: np.ndarray) -> None:
        """Restore a :meth:`dff_state` snapshot.

        The snapshot must be a uint8 array of one code (0-5) per
        flip-flop; anything else raises :class:`MalformedCodesError`
        instead of reaching a LUT as a wrong or out-of-bounds index.
        """
        if (
            not isinstance(snapshot, np.ndarray)
            or snapshot.dtype != _UINT8
            or snapshot.shape != self._dff_q.shape
        ):
            raise MalformedCodesError(
                f"flip-flop snapshot must be a uint8 array of shape "
                f"{self._dff_q.shape}; got "
                f"{getattr(snapshot, 'dtype', type(snapshot).__name__)} "
                f"{getattr(snapshot, 'shape', '')}",
            )
        if len(snapshot) and int(snapshot.max()) > native.MAX_CODE:
            index = int(np.argmax(snapshot > native.MAX_CODE))
            raise MalformedCodesError(
                f"flip-flop {index} snapshot code {int(snapshot[index])} "
                f"is out of range (valid codes are 0-{native.MAX_CODE})",
                dff=index,
                net_code=int(snapshot[index]),
            )
        state.codes[self._dff_q] = snapshot

    @property
    def num_dffs(self) -> int:
        return len(self._dff_q)

    # ------------------------------------------------------------------
    # Port access
    # ------------------------------------------------------------------
    def set_input(self, state: CircuitState, name: str, word: TWord) -> None:
        nets = self._input_arrays[name]
        if len(nets) != word.width:
            raise ValueError(
                f"port {name} is {len(nets)} bits, got {word.width}"
            )
        self._scatter_word(state, nets, word)

    def read_output(self, state: CircuitState, name: str) -> TWord:
        return self._gather_word(state, self._output_arrays[name])

    def set_nets(
        self, state: CircuitState, nets: Sequence[int], word: TWord
    ) -> None:
        if not isinstance(nets, np.ndarray):
            nets = np.array(nets, dtype=np.int64)
        self._scatter_word(state, nets, word)

    def read_nets(self, state: CircuitState, nets: Sequence[int]) -> TWord:
        if not isinstance(nets, np.ndarray):
            nets = np.array(nets, dtype=np.int64)
        return self._gather_word(state, nets)

    def _scatter_word(
        self, state: CircuitState, nets: np.ndarray, word: TWord
    ) -> None:
        """One fancy-indexed write instead of a per-bit scalar loop."""
        width = len(nets)
        bits, xmask, tmask = word.bits, word.xmask, word.tmask
        buffer = bytearray(width)
        for index in range(width):
            probe = 1 << index
            if xmask & probe:
                value = UNKNOWN
            else:
                value = 1 if bits & probe else 0
            buffer[index] = value * 2 + (1 if tmask & probe else 0)
        state.codes[nets] = np.frombuffer(bytes(buffer), dtype=np.uint8)

    def _gather_word(
        self, state: CircuitState, nets: np.ndarray
    ) -> TWord:
        """One gather + a bytes loop: numpy scalar indexing is ~10x the
        cost of iterating a ``bytes`` of the same codes."""
        bits = 0
        xmask = 0
        tmask = 0
        probe = 1
        for code in state.codes[nets].tobytes():
            value = code >> 1
            if value == UNKNOWN:
                xmask |= probe
            elif value:
                bits |= probe
            if code & 1:
                tmask |= probe
            probe <<= 1
        return TWord(bits, xmask, tmask, len(nets))

    def input_nets(self, name: str) -> Tuple[int, ...]:
        return self._inputs[name]

    def output_nets(self, name: str) -> Tuple[int, ...]:
        return self._outputs[name]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def eval_combinational(
        self,
        state: CircuitState,
        inputs: Optional[Mapping[str, TWord]] = None,
        outputs: Sequence[str] = (),
    ) -> Tuple[TWord, ...]:
        """Propagate codes through all combinational logic (one pass).

        *inputs* (port name -> word) are written before the pass and
        the *outputs* ports are read after it; their words are returned
        in order.  On the native kernel all three are one call.
        """
        words = self._evaluate(state, self._levels, "full", inputs, outputs)
        obs = get_observer()
        if obs.enabled:
            self._count_gate_evals(obs, self._gates_by_type,
                                   self._total_gates)
        return words

    def _evaluate(
        self,
        state: CircuitState,
        levels: List[List[_Group]],
        kind: str,
        inputs: Optional[Mapping[str, TWord]] = None,
        outputs: Sequence[str] = (),
    ) -> Tuple[TWord, ...]:
        """One pass over *levels*: the full order or a cone plan.

        The ``dense`` engine runs the native kernel, which also
        scatters *inputs* and gathers *outputs* (see :meth:`_port_pass`).
        The numpy loop runs instead under ``engine="numpy"`` (the
        oracle), when the kernel cannot be built here, and in the paid
        diagnostic modes (a provenance or perf-attribution recorder
        armed); it brackets the pass with :meth:`set_input` and
        :meth:`read_output`.  Both backends reject a malformed codes
        array, and an out-of-range code, with the same
        :class:`MalformedCodesError`.
        """
        codes = state.codes
        flags = codes.flags
        if (
            codes.dtype != _UINT8
            or codes.shape != (self.num_nets,)
            or not flags.c_contiguous
            or not flags.writeable
        ):
            raise MalformedCodesError(
                f"codes must be a writeable, C-contiguous uint8 array "
                f"of {self.num_nets} nets; got {codes.dtype} "
                f"{codes.shape}",
                dtype=str(codes.dtype),
                shape=list(codes.shape),
            )
        recorder = get_recorder()
        perf = get_perf() if recorder is None else None
        kernel = None
        if recorder is None and perf is None and self.engine == "dense":
            kernel = native.kernel()
        if kernel is not None and (inputs or outputs):
            inputs = inputs or {}
            ports = self._port_pass(levels, inputs, outputs)
            if ports is not None:
                return ports.run(
                    kernel, codes, state._data_address(), inputs.values()
                )
        if inputs:
            for name, word in inputs.items():
                self.set_input(state, name, word)
        rows = self._rows(levels)
        if kernel is not None:
            rows.run(kernel, codes, state._data_address())
            return tuple(self.read_output(state, name) for name in outputs)
        rows.check(codes)
        if len(self._const_nets_arr):
            codes[self._const_nets_arr] = self._const_codes_arr
        if recorder is not None:
            self._eval_levels_recording(codes, levels, recorder)
        elif perf is not None:
            slots = perf.group_slots(levels, kind)
            pass_start = perf_counter()
            _eval_levels(codes, levels, slots)
            perf.note_pass(kind, perf_counter() - pass_start)
            if kind == "full":
                perf.ensure_bound(self)
                perf.sample(codes)
        else:
            _eval_levels(codes, levels)
        return tuple(self.read_output(state, name) for name in outputs)

    def _rows(self, levels: List[List[_Group]]) -> native.GateRows:
        """Kernel rows for *levels* (built on first use, then memoised)."""
        tables = getattr(self, "_row_tables", None)
        if tables is None:
            tables = self._row_tables = native.RowTables(
                self._const_nets_arr, self._const_codes_arr, self._levels
            )
        return tables.rows_for(levels)

    def _port_pass(
        self,
        levels: List[List[_Group]],
        inputs: Mapping[str, TWord],
        outputs: Sequence[str],
    ) -> Optional[native.PortPass]:
        """The kernel's port table for one (evaluation order, input
        names, output names) triple, built on first use and memoised
        like :meth:`cone_plan`; None when a port is too wide for the
        kernel's 64-bit words (the pass then brackets the kernel with
        the Python packers).
        """
        passes = getattr(self, "_port_passes", None)
        if passes is None:
            passes = self._port_passes = {}
        key = (id(levels), tuple(inputs), tuple(outputs))
        entry = passes.get(key)
        if entry is None or entry[0] is not levels:
            in_nets = [(name, self._input_arrays[name]) for name in inputs]
            out_nets = [
                (name, self._output_arrays[name]) for name in outputs
            ]
            fits = all(
                len(nets) <= native.MAX_PORT_WIDTH
                for _, nets in in_nets + out_nets
            )
            table = (
                native.PortPass(self._rows(levels), in_nets, out_nets)
                if fits else None
            )
            # The entry pins *levels* so its id cannot be recycled.
            entry = passes[key] = (levels, table)
        return entry[1]

    def _producer_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-net fan-in table and topological rank for provenance.

        ``table`` is ``(num_nets, max_arity)``: row *n* holds the input
        net ids of the gate driving net *n* (-1 padded; nets without a
        combinational producer -- DFF Qs, ports, constants -- stay all
        -1).  ``rank[n]`` is the driving gate's position in evaluation
        order, used to emit a pass's edges cause-before-effect.  Built
        lazily on the first provenance-recording pass.
        """
        cached = getattr(self, "_prod_tables", None)
        if cached is None:
            max_arity = 1
            for groups in self._levels:
                for group in groups:
                    max_arity = max(max_arity, len(group.inputs))
            table = np.full((self.num_nets, max_arity), -1, dtype=np.int64)
            rank = np.zeros(self.num_nets, dtype=np.int64)
            counter = 0
            for groups in self._levels:
                for group in groups:
                    for position, column in enumerate(group.inputs):
                        table[group.outputs, position] = column
                    rank[group.outputs] = np.arange(
                        counter, counter + len(group.outputs)
                    )
                    counter += len(group.outputs)
            cached = self._prod_tables = (table, rank)
        return cached

    def _eval_levels_recording(
        self, codes: np.ndarray, levels: List[List[_Group]], recorder
    ) -> None:
        """The evaluation loop with per-gate taint-provenance capture.

        The inner gate loop is identical to the plain path; provenance
        costs two whole-array operations per pass -- snapshot the codes
        before, diff the taint bits after -- plus fan-in resolution for
        just the newly-tainted nets.  Each net is written at most once
        per pass and its fan-ins come from earlier levels, so the
        post-pass codes are exactly what the producing gate read, and
        the diff attributes every new taint bit to the right edges.
        Edges are emitted in the gates' evaluation order: the backward
        slicer relies on a cause being recorded before its effect.
        """
        before = codes.copy()
        _eval_levels(codes, levels)
        fresh = np.nonzero(codes & ~before & 1)[0]
        if len(fresh) == 0:
            return
        table, rank = self._producer_tables()
        fresh = fresh[np.argsort(rank[fresh])]
        fan_in = table[fresh]  # (n, max_arity)
        # Row-major ravel keeps each gate's fan-in edges consecutive, so
        # the stream stays topologically ordered within the pass.
        src_flat = fan_in.ravel()
        dst_flat = np.repeat(fresh, fan_in.shape[1])
        mask = (src_flat >= 0) & (
            (codes[np.maximum(src_flat, 0)] & 1).astype(bool)
        )
        if mask.any():
            recorder.record_gate(dst_flat[mask], src_flat[mask])

    def _count_gate_evals(self, obs, by_type: Dict[str, int],
                          total: int) -> None:
        metrics = obs.metrics
        key = (id(metrics), id(by_type))
        increments = self._counter_cache.get(key)
        if increments is None:
            increments = [
                (metrics.counter("sim.eval_passes"), 1),
                (metrics.counter("sim.gate_evals"), total),
            ]
            increments.extend(
                (metrics.counter(f"sim.gate_evals.{cell_type}"), count)
                for cell_type, count in by_type.items()
            )
            self._counter_cache[key] = increments
        for counter, amount in increments:
            counter.value += amount

    def _totals_of_plan(
        self, plan: List[List[_Group]]
    ) -> Tuple[Dict[str, int], int]:
        key = id(plan)
        cached = self._plan_totals.get(key)
        if cached is None:
            by_type: Dict[str, int] = {}
            for groups in plan:
                for group in groups:
                    by_type[group.cell_type] = (
                        by_type.get(group.cell_type, 0) + len(group.outputs)
                    )
            cached = (by_type, sum(by_type.values()))
            self._plan_totals[key] = cached
        return cached

    def cone_plan(self, port_names: Sequence[str]) -> List[List[_Group]]:
        """Pre-group only the gates feeding the named output ports.

        Used by the SoC's first evaluation pass, which only needs the
        memory-interface signals; the full pass runs after read data is
        applied.  Memoised per port list: every SoC on this circuit
        shares one plan, so the per-plan kernel rows and counters stay
        one entry each however many analyses run.
        """
        key = tuple(port_names)
        plans = getattr(self, "_cone_plans", None)
        if plans is None:
            plans = self._cone_plans = {}
        if key not in plans:
            plans[key] = self._build_cone_plan(key)
        return plans[key]

    def _build_cone_plan(
        self, port_names: Sequence[str]
    ) -> List[List[_Group]]:
        wanted = set()
        for name in port_names:
            wanted.update(self._outputs[name])
        producers: Dict[int, object] = {}
        for groups in self._levels:
            for group in groups:
                for position, output in enumerate(group.outputs):
                    producers[int(output)] = (group, position)
        needed = set()
        stack = list(wanted)
        while stack:
            net = stack.pop()
            if net in needed:
                continue
            needed.add(net)
            producer = producers.get(net)
            if producer is None:
                continue
            group, position = producer
            for column in group.inputs:
                stack.append(int(column[position]))
        plan: List[List[_Group]] = []
        for groups in self._levels:
            level_plan: List[_Group] = []
            for group in groups:
                keep = [
                    i
                    for i, output in enumerate(group.outputs)
                    if int(output) in needed
                ]
                if not keep:
                    continue
                if len(keep) == len(group.outputs):
                    level_plan.append(group)
                else:
                    level_plan.append(
                        _Group(
                            group.lut,
                            [column[keep] for column in group.inputs],
                            group.outputs[keep],
                            group.cell_type,
                        )
                    )
            if level_plan:
                plan.append(level_plan)
        return plan

    def eval_plan(
        self,
        state: CircuitState,
        plan: List[List[_Group]],
        inputs: Optional[Mapping[str, TWord]] = None,
        outputs: Sequence[str] = (),
    ) -> Tuple[TWord, ...]:
        """Evaluate a pre-grouped cone (see :meth:`cone_plan`), with
        *inputs* and *outputs* as in :meth:`eval_combinational`."""
        words = self._evaluate(state, plan, "interface", inputs, outputs)
        obs = get_observer()
        if obs.enabled:
            by_type, total = self._totals_of_plan(plan)
            self._count_gate_evals(obs, by_type, total)
        return words

    def clock_edge(self, state: CircuitState) -> None:
        """Latch every flip-flop: ``Q <= D``."""
        perf = get_perf()
        edge_start = perf_counter() if perf is not None else 0.0
        recorder = get_recorder()
        if recorder is not None:
            codes = state.codes
            newly = (codes[self._dff_d] & 1) & (codes[self._dff_q] & 1 ^ 1)
            picks = np.nonzero(newly)[0]
            if len(picks):
                recorder.record_latch(
                    self._dff_q[picks], self._dff_d[picks]
                )
        state.codes[self._dff_q] = state.codes[self._dff_d]
        if perf is not None:
            perf.note_clock_edge(perf_counter() - edge_start)

    def dff_nets(self) -> np.ndarray:
        """Net ids of every flip-flop Q (read-only view)."""
        return self._dff_q

    def taint_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently tainted (used by the *-logic study)."""
        return float(np.mean(state.codes & 1))

    def unknown_fraction(self, state: CircuitState) -> float:
        """Fraction of nets currently unknown."""
        return float(np.mean(state.codes >= 4))
