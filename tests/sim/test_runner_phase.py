"""GateRunner.phase() decodes dbg_phase from the word's masks."""

import itertools
from types import SimpleNamespace

from repro.logic.ternary import ONE, UNKNOWN, ZERO
from repro.logic.words import TWord
from repro.sim.runner import PHASE_F, GateRunner


def bitwise_phase(word):
    """The per-bit decode phase() replaced: the lowest ONE among bits
    1-6 wins, even over a lower X bit; any X bit alone is unknown."""
    unknown = False
    for bit in range(1, 7):
        value, _ = word.bit(bit)
        if value == ONE:
            return bit
        if value != ZERO:
            unknown = True
    if unknown:
        return -1
    return PHASE_F


def test_phase_matches_bitwise_decode_on_every_pattern():
    """All 3**6 ternary patterns of the registered bits 1-6, each with
    every value of the derived F bit 0 and with taint on or off."""
    for pattern in itertools.product((ZERO, ONE, UNKNOWN), repeat=6):
        for bit0, tmask in itertools.product((ZERO, ONE, UNKNOWN), (0, 0x7F)):
            bits = xmask = 0
            for index, value in enumerate((bit0, *pattern)):
                if value == ONE:
                    bits |= 1 << index
                elif value == UNKNOWN:
                    xmask |= 1 << index
            word = TWord(bits, xmask, tmask, 7)
            runner = SimpleNamespace(
                soc=SimpleNamespace(read_debug=lambda name, w=word: w)
            )
            assert GateRunner.phase(runner) == bitwise_phase(word), word
