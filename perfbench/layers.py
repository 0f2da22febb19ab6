"""Layer attribution by wrapping each layer's public functions.

Nothing under ``src/`` is changed: the wrappers are installed on the
program's classes and module globals from here and removed afterwards.
Every wrapper records a span on the paced clock; a layer's self time is
its spans' duration minus the part covered by child spans, so nested
layers (``SoC.step`` calling ``eval_plan`` calling nothing) are never
counted twice.  Spans of a bucket nested in the same bucket simply add
their self times.

The same targets serve slowdown injection: ``inject`` makes one layer's
public functions take twice their own time, which is how the
layer-sensitivity test slows one layer without touching the program.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple


def _targets() -> Dict[str, List[Tuple[object, str]]]:
    """Bucket -> the (owner, attribute) pairs whose calls it times."""
    import repro.core.tracker as tracker
    import repro.transform.masking as masking
    import repro.transform.pipeline as pipeline
    from repro.core.checker import PolicyChecker
    from repro.sim.compiled import CompiledCircuit
    from repro.sim.soc import AddressSpace, Rom, SoC

    checker_methods = [
        "note_instruction_start",
        "note_instruction_end",
        "note_unbounded_control",
        "note_events",
        "new_violations_since",
        "violation_count",
        "adopt",
        "export_state",
        "restore_state",
        "violations",
    ]
    return {
        "compiled.eval": [
            (CompiledCircuit, "eval_combinational"),
            (CompiledCircuit, "eval_plan"),
        ],
        "compiled.clock_edge": [(CompiledCircuit, "clock_edge")],
        "compiled.io": [
            (CompiledCircuit, name)
            for name in (
                "set_input",
                "read_output",
                "set_nets",
                "read_nets",
                "dff_state",
                "set_dff_state",
            )
        ],
        "soc.step": [(SoC, "step")],
        "soc.mem": [(AddressSpace, "read"), (AddressSpace, "write")],
        "soc.rom": [(Rom, "read")],
        "tracker": [(tracker.TaintTracker, "run")],
        "tracker.snapshot": [(SoC, "snapshot")],
        "tracker.restore": [(SoC, "restore")],
        "tracker.merge": [
            (tracker, "codes_merge"),
            (AddressSpace, "merge"),
        ],
        "tracker.cover": [
            (tracker, "codes_cover"),
            (AddressSpace, "covers"),
        ],
        "tracker.decode": [(tracker, "decode")],
        "checker": [(PolicyChecker, name) for name in checker_methods],
        "transform": [
            (pipeline, name)
            for name in (
                "identify_root_causes",
                "insert_watchdog_protection",
                "insert_masks",
                "choose_slicing",
                "estimate_task_cycles",
            )
        ],
        "isa.assemble": [(pipeline, "assemble"), (masking, "assemble")],
    }


#: layer -> its buckets (for shares and for blame)
LAYERS = {
    "compiled": ("compiled.eval", "compiled.clock_edge", "compiled.io"),
    "soc": ("soc.step", "soc.mem", "soc.rom"),
    "tracker": (
        "tracker",
        "tracker.snapshot",
        "tracker.restore",
        "tracker.merge",
        "tracker.cover",
        "tracker.decode",
    ),
    "checker": ("checker",),
    "transform": ("transform", "isa.assemble"),
}


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, make: Callable) -> None:
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


#: injectable slowdowns -> the buckets whose functions they slow
INJECTABLE = {
    "compiled.eval": ("compiled.eval",),
    "tracker.state": (
        "tracker.snapshot",
        "tracker.restore",
        "tracker.merge",
        "tracker.cover",
        "tracker.decode",
    ),
    "transform": ("transform",),
}


def inject(patches: Patches, name: str, busy: Callable[[], float]) -> None:
    """Make every function of injectable *name* take twice as long.

    After each call the wrapper spins for as long as the call took on the
    *busy* clock (wall time outside the pacer's probes), so the function
    costs exactly twice its own time whatever it caches or reuses.
    """

    def make(fn):
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            start = busy()
            try:
                return fn(*args, **kwargs)
            finally:
                until = 2 * busy() - start
                while busy() < until:
                    pass

        return slowed

    targets = _targets()
    for bucket in INJECTABLE[name]:
        for owner, attr in targets[bucket]:
            patches.replace(owner, attr, make)


class Tracer:
    """Self time and call counts per bucket, plus a few layer counters.

    Counters accumulate per job; :meth:`take` returns and resets them.
    """

    def __init__(self, clock):
        self.clock = clock
        self._stack: List[List[float]] = []
        self._reset()

    def _reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: inclusive duration of every SoC.step call (paced seconds)
        self.step_s: List[float] = []
        #: inclusive duration of every TaintTracker.run call
        self.run_s: List[float] = []
        self.smeared = 0
        self.cover_checks = 0
        self.cover_hits = 0

    def take(self) -> dict:
        record = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "step_s": self.step_s,
            "smeared": self.smeared,
            "cover_checks": self.cover_checks,
            "cover_hits": self.cover_hits,
            "covered": sum(self.self_s.values()),
            "reverify_s": sum(self.run_s[1:]),
        }
        self._reset()
        return record

    def install(self, patches: Patches) -> None:
        for bucket, targets in _targets().items():
            for owner, name in targets:
                patches.replace(
                    owner, name, lambda fn, b=bucket: self._wrap(b, fn)
                )

    def _wrap(self, bucket: str, fn):
        clock = self.clock
        stack = self._stack
        name = fn.__name__
        is_mem = bucket == "soc.mem"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_mem:
                address = args[1]
                if address.xmask or address.tmask:
                    self.smeared += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_s[bucket] += duration - frame[0]
                self.calls[bucket] += 1
                if stack:
                    stack[-1][0] += duration
                if name == "step":
                    self.step_s.append(duration)
                elif name == "run":
                    self.run_s.append(duration)
            if name == "codes_cover":
                self.cover_checks += 1
            elif name == "covers" and result:
                self.cover_hits += 1
            return result

        return traced

    def wrapper_cost(self, samples: int = 20000) -> float:
        """Paced seconds one wrapped call adds over a bare call."""
        probe = Tracer(self.clock)
        patches = Patches()

        class Bare:
            def call(self):
                return None

        bare = Bare()
        start = self.clock()
        for _ in range(samples):
            bare.call()
        plain = self.clock() - start
        patches.replace(Bare, "call", lambda fn: probe._wrap("x", fn))
        try:
            start = self.clock()
            for _ in range(samples):
                bare.call()
            wrapped = self.clock() - start
        finally:
            patches.undo()
        return max(wrapped - plain, 0.0) / samples
