"""Native dense gate kernel (DESIGN.md section 13).

The compiled simulator's default ``dense`` engine evaluates gates with
one C loop instead of a numpy gather per (level, cell type) group.
Every evaluation order -- the full levelized pass and each
:meth:`~repro.sim.compiled.CompiledCircuit.cone_plan` -- is flattened
into an int32 row table, one row per gate, in evaluation order::

    lut offset | arity | in0 | in1 | in2 | in3 | out

Constant cells come first as arity-0 rows (the LUT blob starts with the
identity table, so a constant's offset is its code), and one kernel
call is a whole pass.  The kernel packs the row's input codes
base 6, reads ``luts[offset + index]`` and writes the output net; it
stops at, and returns, the first row reading a code above 5 (a
malformed state), so a bad code can never index past its LUT.

The one C entry point is::

    repro_pass(rows, count, luts, codes, io, n_in, n_out, words)

It moves a pass's port traffic too, in three steps: scatter ``n_in``
input ports from ``words``, run the rows, gather ``n_out`` output ports
into ``words``.  ``io`` (a :class:`PortPass` table) holds ``width, net
ids...`` per input port, then per output port; ``words`` holds one
uint64 ``(bits, xmask, tmask)`` triple per port in the same order, and
a net's code is ``value * 2 + taint`` with value 2 for X.  A plain pass
is the same call with no ports (``io`` and ``words`` NULL).  The SoC
thus makes one kernel call per pass, two per cycle, instead of packing
each port word bit by bit in Python around the call.

The C source is compiled once by the system compiler into a per-user
cache (``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, else a private
temporary directory) under a name keyed by the source, flags and
platform, and loaded with :mod:`ctypes`.  The build writes a temporary
file and renames it into place, so concurrent workers can race to
build it safely.  Loading is lazy -- the first evaluation pass pays it,
not ``import repro`` -- and when no compiler is found or the build
fails, :func:`kernel` warns once with the reason and returns None: the
caller then runs the numpy loop, which stays the reference.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.logic.words import TWord
from repro.resilience.errors import MalformedCodesError

#: Compilers tried, in order, when the cached library is missing.
COMPILERS = ("cc", "gcc")
CFLAGS = ("-O2", "-shared", "-fPIC")

#: Int32 columns per row: lut offset, arity, four input nets, output net.
ROW_WIDTH = 7
MAX_ARITY = 4
#: The largest valid net code (value X, tainted).
MAX_CODE = 5

SOURCE = r"""
#include <stdint.h>

/* One SoC pass: scatter n_in input ports, run the rows, gather n_out
 * output ports.  io holds [width, net ids...] per input port, then per
 * output port; words holds one (bits, xmask, tmask) triple per port in
 * the same order.  Returns the first row reading a code above 5 (the
 * gather is then skipped), else -1. */
int64_t repro_pass(const int32_t *rows, int64_t count,
                   const uint8_t *luts, uint8_t *codes,
                   const int32_t *io, int64_t n_in, int64_t n_out,
                   uint64_t *words)
{
    for (int64_t p = 0; p < n_in; ++p, words += 3) {
        int32_t width = *io++;
        for (int32_t i = 0; i < width; ++i) {
            uint32_t value = (words[1] >> i) & 1 ? 2 : (words[0] >> i) & 1;
            codes[io[i]] = (uint8_t)(value * 2 + ((words[2] >> i) & 1));
        }
        io += width;
    }
    /* Unrolled per arity: about twice as fast as a loop over rows[1]. */
    for (int64_t r = 0; r < count; ++r, rows += 7) {
        uint32_t a, b, c, d, index;
        switch (rows[1]) {
        case 0:
            index = 0;
            break;
        case 1:
            a = codes[rows[2]];
            if (a > 5)
                return r;
            index = a;
            break;
        case 2:
            a = codes[rows[2]];
            b = codes[rows[3]];
            if ((a > 5) | (b > 5))
                return r;
            index = a * 6 + b;
            break;
        case 3:
            a = codes[rows[2]];
            b = codes[rows[3]];
            c = codes[rows[4]];
            if ((a > 5) | (b > 5) | (c > 5))
                return r;
            index = (a * 6 + b) * 6 + c;
            break;
        default:
            a = codes[rows[2]];
            b = codes[rows[3]];
            c = codes[rows[4]];
            d = codes[rows[5]];
            if ((a > 5) | (b > 5) | (c > 5) | (d > 5))
                return r;
            index = ((a * 6 + b) * 6 + c) * 6 + d;
            break;
        }
        codes[rows[6]] = luts[rows[0] + index];
    }
    for (int64_t p = 0; p < n_out; ++p, words += 3) {
        int32_t width = *io++;
        uint64_t bits = 0, xmask = 0, tmask = 0;
        for (int32_t i = 0; i < width; ++i) {
            uint32_t code = codes[io[i]];
            uint64_t probe = (uint64_t)1 << i;
            if ((code >> 1) == 2)
                xmask |= probe;
            else if (code >> 1)
                bits |= probe;
            if (code & 1)
                tmask |= probe;
        }
        words[0] = bits;
        words[1] = xmask;
        words[2] = tmask;
        io += width;
    }
    return -1;
}
"""


class NativeKernelWarning(RuntimeWarning):
    """The native kernel could not be built; the numpy loop runs."""


class _Unavailable(Exception):
    """Why the kernel cannot be loaded (the warning's reason)."""


#: The loaded kernel function (it keeps its library alive), False once
#: loading failed, None before the first attempt.
_kernel = None


def kernel():
    """The kernel function, or None when it cannot be built here.

    The first call builds or loads the library; a failure is warned
    about once (:class:`NativeKernelWarning`) and remembered.
    """
    global _kernel
    if _kernel is None:
        try:
            _kernel = _load()
        except _Unavailable as error:
            warnings.warn(
                f"native gate kernel unavailable ({error}); "
                "evaluating with the numpy loop",
                NativeKernelWarning,
                stacklevel=2,
            )
            _kernel = False
    return _kernel or None


def cache_dir() -> Path:
    """The per-user library cache, or a private temp dir if unwritable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-native-"))


def library_name() -> str:
    """Cache file name: a hash of the source, flags and platform."""
    # hashlib and subprocess are imported on first use, keeping them
    # out of ``import repro`` (nothing else on the cold path needs them).
    import hashlib

    key = "\0".join(
        (SOURCE, *CFLAGS, sys.platform, platform.machine())
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return f"glift_kernel_{digest}.so"


def _load():
    path = cache_dir() / library_name()
    if not path.exists():
        _build(path)
    try:
        library = ctypes.CDLL(str(path))
    except OSError as error:
        raise _Unavailable(f"cannot load {path}: {error}") from error
    fn = library.repro_pass
    # Pointers must be declared c_void_p: undeclared, ctypes passes
    # Python ints as C int and truncates 64-bit addresses.
    fn.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
    )
    fn.restype = ctypes.c_int64
    return fn


def _build(path: Path) -> None:
    import subprocess

    compiler = next(
        (found for found in map(shutil.which, COMPILERS) if found), None
    )
    if compiler is None:
        raise _Unavailable(
            f"no C compiler found (looked for {', '.join(COMPILERS)})"
        )
    handle, partial = tempfile.mkstemp(
        dir=path.parent, prefix=".build-", suffix=".so"
    )
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-", "-o", partial],
            input=SOURCE,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise _Unavailable(
                f"{compiler} failed: {done.stderr.strip()[:400]}"
            )
        os.replace(partial, path)
    except (OSError, subprocess.SubprocessError) as error:
        raise _Unavailable(f"{compiler} failed: {error}") from error
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


# ---------------------------------------------------------------------------
# Row tables
# ---------------------------------------------------------------------------
class GateRows:
    """One evaluation order flattened to kernel rows.

    Holds the row and LUT arrays and their cached addresses, so a pass
    costs one ctypes call.
    """

    __slots__ = ("rows", "luts", "count", "_rows_ptr", "_luts_ptr")

    def __init__(self, rows: np.ndarray, luts: np.ndarray):
        self.rows = rows
        self.luts = luts
        self.count = len(rows)
        self._rows_ptr = rows.ctypes.data
        self._luts_ptr = luts.ctypes.data

    def run(self, fn, codes: np.ndarray, address: int) -> None:
        """Evaluate every row over *codes* (validated by the caller),
        whose data pointer is *address*."""
        bad = fn(self._rows_ptr, self.count, self._luts_ptr, address,
                 None, 0, 0, None)
        if bad >= 0:
            raise self.malformed(bad, codes)

    def check(self, codes: np.ndarray) -> None:
        """Raise exactly where :meth:`run` would, without evaluating.

        The numpy loop's guard: a row reads an out-of-range code only
        from a net no earlier row writes (rows are in evaluation order,
        so a produced net is always rewritten before it is read).
        """
        bad = codes > MAX_CODE
        if not bad.any():
            return
        bad[self.rows[:, 6]] = False
        arity = self.rows[:, 1:2]
        hits = bad[self.rows[:, 2:6]] & (np.arange(MAX_ARITY) < arity)
        rows = np.flatnonzero(hits.any(axis=1))
        if len(rows):
            raise self.malformed(int(rows[0]), codes)

    def malformed(self, row: int, codes: np.ndarray) -> MalformedCodesError:
        arity = int(self.rows[row, 1])
        output = int(self.rows[row, 6])
        net = next(
            int(net)
            for net in self.rows[row, 2:2 + arity]
            if codes[net] > MAX_CODE
        )
        return MalformedCodesError(
            f"net {net} holds code {int(codes[net])} (valid codes are "
            f"0-{MAX_CODE}); read by the gate driving net {output}",
            net=net,
            net_code=int(codes[net]),
            row=row,
        )


class RowTables:
    """Every evaluation order of one circuit, flattened lazily.

    One LUT blob holds each cell type's table once.  It starts with the
    identity table ``0..5``, so a constant is an arity-0 row whose LUT
    offset is its code.  :meth:`rows_for` flattens a level list on
    first sight and memoises it by identity, pinning the list so its
    id cannot be recycled.
    """

    def __init__(self, const_nets: np.ndarray, const_codes: np.ndarray,
                 levels: list):
        self._offsets: Dict[str, int] = {}
        blobs: List[np.ndarray] = [np.arange(MAX_CODE + 1, dtype=np.uint8)]
        size = MAX_CODE + 1
        for groups in levels:
            for group in groups:
                if group.cell_type not in self._offsets:
                    self._offsets[group.cell_type] = size
                    blobs.append(group.lut)
                    size += len(group.lut)
        self.luts = np.ascontiguousarray(np.concatenate(blobs))
        consts = np.zeros((len(const_nets), ROW_WIDTH), dtype=np.int32)
        consts[:, 0] = const_codes
        consts[:, 6] = const_nets
        self._consts = consts
        self._memo: Dict[int, Tuple[list, GateRows]] = {}

    def rows_for(self, levels: list) -> GateRows:
        entry = self._memo.get(id(levels))
        if entry is not None and entry[0] is levels:
            return entry[1]
        parts = [self._consts]
        for groups in levels:
            for group in groups:
                arity = len(group.inputs)
                if arity > MAX_ARITY:
                    raise ValueError(
                        f"{group.cell_type} has {arity} inputs; the "
                        f"native row holds at most {MAX_ARITY}"
                    )
                block = np.zeros((len(group.outputs), ROW_WIDTH),
                                 dtype=np.int32)
                block[:, 0] = self._offsets[group.cell_type]
                block[:, 1] = arity
                for position, column in enumerate(group.inputs):
                    block[:, 2 + position] = column
                block[:, 6] = group.outputs
                parts.append(block)
        rows = GateRows(np.ascontiguousarray(np.concatenate(parts)),
                        self.luts)
        self._memo[id(levels)] = (levels, rows)
        return rows


# ---------------------------------------------------------------------------
# Port tables
# ---------------------------------------------------------------------------
#: The widest port one ``(bits, xmask, tmask)`` uint64 triple holds.
MAX_PORT_WIDTH = 64


class PortPass:
    """One evaluation order plus the ports a fused pass moves.

    ``io`` is the kernel's int32 port table -- ``width, net ids...``
    per input port, then per output port.  Each :meth:`run` fills a
    fresh buffer of one ``(bits, xmask, tmask)`` uint64 triple per port
    in the same order with the input words, the kernel scatters them,
    runs the rows and gathers the output triples, and :meth:`run` reads
    those back as words.  The buffer is per call (0.2 us) because the
    kernel runs without the GIL: threads sharing a circuit must not
    share port words.
    """

    __slots__ = ("rows", "names", "widths", "n_in", "n_out", "io",
                 "_io_ptr", "_words_type", "_gather")

    def __init__(self, rows: GateRows,
                 inputs: Sequence[Tuple[str, np.ndarray]],
                 outputs: Sequence[Tuple[str, np.ndarray]]):
        ports = [*inputs, *outputs]
        self.rows = rows
        self.names = tuple(name for name, _ in ports)
        self.widths = tuple(len(nets) for _, nets in ports)
        self.n_in = len(inputs)
        self.n_out = len(outputs)
        table: List[int] = []
        for _, nets in ports:
            table.append(len(nets))
            table.extend(int(net) for net in nets)
        self.io = np.array(table, dtype=np.int32)
        self._io_ptr = self.io.ctypes.data
        self._words_type = ctypes.c_uint64 * (3 * len(ports))
        #: (offset into the output triples, width) per output port
        self._gather = tuple(
            (3 * index, len(nets)) for index, (_, nets) in enumerate(outputs)
        )

    def run(self, fn, codes: np.ndarray, address: int,
            inputs: Iterable[TWord]) -> Tuple[TWord, ...]:
        """Scatter *inputs* (in table order), evaluate, gather outputs."""
        words = self._words_type()
        slot = 0
        for word, width in zip(inputs, self.widths):
            if word.width != width:
                raise ValueError(
                    f"port {self.names[slot // 3]} is {width} bits, "
                    f"got {word.width}"
                )
            words[slot] = word.bits
            words[slot + 1] = word.xmask
            words[slot + 2] = word.tmask
            slot += 3
        rows = self.rows
        bad = fn(rows._rows_ptr, rows.count, rows._luts_ptr, address,
                 self._io_ptr, self.n_in, self.n_out, words)
        if bad >= 0:
            raise rows.malformed(bad, codes)
        out = words[3 * self.n_in:]
        return tuple([
            TWord(out[at], out[at + 1], out[at + 2], width)
            for at, width in self._gather
        ])
