"""Instrumentation overhead of the perf-attribution profiler.

The attribution mode in :mod:`repro.sim.compiled` exists to steer the
simulator-speedup work, so it must not distort what it measures: the
documented budget is **<15% overhead** over the uninstrumented run.
This bench times the same gate-level run plain and armed (interleaved,
best-of-N on each side) and also checks the attribution document's
self-consistency: the sum of the measured components must cover the
run's wall time to within 10%.

Armed runs time the numpy reference loop (the native kernel is one C
call per pass, with nothing inside to time), so the plain side runs on
the ``numpy`` engine too: the ratio is the cost of the timing itself.
"""

import time

import pytest

from repro.cpu import compiled_cpu
from repro.isa.assembler import assemble
from repro.obs.perf import PerfAttribution, PerfHarness
from repro.sim.runner import GateRunner

LOOP = """
    mov #400, r10
loop:
    dec r10
    jnz loop
    halt
"""

CYCLES = 1_000
ROUNDS = 5


@pytest.fixture(scope="module")
def circuit():
    return compiled_cpu("numpy")


def test_attribution_overhead(circuit, bench_json):
    program = assemble(LOOP, name="loop")

    def run_plain():
        start = time.perf_counter()
        GateRunner(circuit, program).run(max_cycles=CYCLES)
        return time.perf_counter() - start

    def run_armed():
        recorder = PerfAttribution()
        harness = PerfHarness(
            GateRunner(circuit, program), recorder
        )
        harness.run(max_cycles=CYCLES)
        return harness

    run_plain()  # warm every lazy cache before timing
    # Host throughput drifts substantially between runs, so compare
    # back-to-back pairs and take the median per-round ratio: slow
    # phases hit both sides of a pair, not one.
    ratios = []
    plain_times = []
    armed_times = []
    harness = None
    for _ in range(ROUNDS):
        plain_times.append(run_plain())
        harness = run_armed()
        armed_times.append(harness.wall_seconds)
        ratios.append(armed_times[-1] / plain_times[-1])
    plain = min(plain_times)
    armed = min(armed_times)
    overhead = sorted(ratios)[len(ratios) // 2]

    document = harness.to_document("loop")
    fraction = document["attributed_fraction"]
    bench_json(
        "perf_attribution",
        {
            "cycles": harness.cycles,
            "plain_seconds": plain,
            "armed_seconds": armed,
            "overhead_ratio": overhead,
            "round_ratios": ratios,
            "attributed_fraction": fraction,
            "ranks": len(document["ranks"]),
            "cones": len(document["cones"]),
            "activity_samples": document["activity"]["samples"],
            "mean_changed_fraction": document["activity"][
                "mean_changed_fraction"
            ],
        },
        wall_seconds=armed,
        cycles_per_second=harness.cycles / armed,
    )

    assert document["ranks"], "no rank attribution recorded"
    assert document["cones"], "no cones discovered"
    assert abs(1.0 - fraction) < 0.10, (
        f"attributed {100 * fraction:.1f}% of wall time; the measured "
        "components must cover the run to within 10%"
    )
    assert overhead < 1.15, (
        f"attribution overhead {overhead:.3f}x exceeds the 15% budget "
        f"(plain {plain:.3f}s, armed {armed:.3f}s)"
    )
