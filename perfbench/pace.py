"""Host-paced clock: wall time rescaled to undisturbed host speed.

On a shared host the guest cannot see contention, yet it changes how fast
the same code runs by up to ~2x, in phases that switch every few seconds
to minutes.  Process CPU time slows down with wall time, so it cannot
tell a slower program from a busier host either.

The pacer runs a fixed reference probe every ``INTERVAL_S`` seconds on a
SIGALRM timer.  Each wall-clock slice of the job between two probes is
rescaled by how much slower the probe that ends it ran than it runs on an
undisturbed host::

    paced_s = sum(slice_s * (REF_PROBE_S / probe_s) ** EXPONENT)

The probes' own time is left out.  The probe is benchmark code, not
program code: a change to the program moves the slices and leaves the
probes alone, so it moves paced time in full.  ``EXPONENT`` corrects for
the analysis slowing down slightly more than the probe under contention;
``calibrate.py`` re-derives it and ``REF_PROBE_S`` (see README.md,
"Recalibrating").
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: probe time on an undisturbed host (seconds)
REF_PROBE_S = 0.00034
#: slowdown exponent that decorrelates paced time from host slowdown
EXPONENT = 1.15
#: probe cadence (seconds)
INTERVAL_S = 0.025


class Probe:
    """A fixed miniature of the dense gate kernel.

    A seeded random levelised netlist (3k nets, 60 small cell groups of
    arity 1-4, base-6 LUT lookups) evaluated the way
    ``CompiledCircuit.eval_combinational`` does -- numpy gathers over
    small index groups driven from Python -- so the probe slows down with
    the host resources the analysis depends on.
    """

    def __init__(self, nets: int = 3000, groups: int = 60, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.codes = rng.integers(0, 6, nets).astype(np.uint8)
        self.groups = []
        for _ in range(groups):
            arity = int(rng.integers(1, 5))
            size = int(rng.integers(2, 12))
            inputs = [rng.integers(0, nets, size) for _ in range(arity)]
            outputs = rng.integers(0, nets, size)
            lut = rng.integers(0, 6, 6**arity).astype(np.uint8)
            self.groups.append((inputs, outputs, lut))

    def run(self) -> float:
        """One probe; returns its wall time in seconds."""
        codes = self.codes
        start = perf_counter()
        for inputs, outputs, lut in self.groups:
            index = codes[inputs[0]].astype(np.int32)
            for column in inputs[1:]:
                index *= 6
                index += codes[column]
            codes[outputs] = lut[index]
        return perf_counter() - start


class Pacer:
    """A paced clock driven by a periodic reference probe.

    :meth:`mark` closes the current slice with a probe and returns the
    exact paced total; time jobs with it.  :meth:`now` is the cheap
    provisional reading for short spans: it rescales the open slice by
    the last probe's factor, so a span that straddles a probe is off by
    at most that slice's correction.  Use as a context manager; only one
    pacer can own SIGALRM at a time.
    """

    def __init__(self):
        self.ref = REF_PROBE_S
        self.exponent = EXPONENT
        self.probe = Probe()
        #: every probe time taken, in order
        self.probes: list = []
        #: wall seconds spent inside probes
        self.probe_seconds = 0.0
        #: (wall start, wall end, closing probe time) of every slice
        self.slices: list = []
        # (paced seconds so far, wall mark, factor) -- one tuple, so a
        # reader interrupted by the handler never mixes two states
        self._state = (0.0, perf_counter(), 1.0)
        self._previous = None

    # ------------------------------------------------------------------
    def _tick(self, signum=None, frame=None) -> float:
        start = perf_counter()
        paced, mark, _ = self._state
        probe = self.probe.run()
        factor = (self.ref / probe) ** self.exponent
        paced += (start - mark) * factor
        self.probes.append(probe)
        self.slices.append((mark, start, probe))
        end = perf_counter()
        self.probe_seconds += end - start
        self._state = (paced, end, factor)
        return paced

    def mark(self) -> float:
        """Close the open slice with a probe; the exact paced total."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._tick()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)

    def busy(self) -> float:
        """Wall seconds spent outside probes (a raw, unpaced clock)."""
        return perf_counter() - self.probe_seconds

    def now(self) -> float:
        """Provisional paced seconds since the pacer started."""
        paced, mark, factor = self._state
        return paced + (perf_counter() - mark) * factor

    def slowdown(self, since: int = 0) -> float:
        """Median probe time over reference, from probe index *since*."""
        probes = self.probes[since:] or self.probes[-1:]
        return statistics.median(probes) / self.ref

    # ------------------------------------------------------------------
    def __enter__(self) -> "Pacer":
        self.probe.run()  # warm
        self._state = (0.0, perf_counter(), 1.0)
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Never fall back to SIG_DFL: a late alarm would kill the process.
        previous = self._previous
        if not callable(previous):
            previous = _ignore
        signal.signal(signal.SIGALRM, previous)


def _ignore(signum, frame) -> None:
    """Stands in for the default action, which would end the process."""
