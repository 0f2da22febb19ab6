"""Tests of the benchmark itself: pacing calibration and layer sensitivity.

These run real analyses for minutes, so they are not part of the
repository's default test run.  Run them from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q -s

Nothing under ``src/`` is changed; slowdowns are injected by wrapping a
layer's public functions from ``layers.py``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
from pace import EXPONENT, Pacer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def bench(workload, trace=0, inject=None):
    """One single-pass benchmark run (seed 3); its metrics by name."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", "3",
        "--seconds", "1",
        "--trace", str(trace),
    ]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT, timeout=600
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


# ----------------------------------------------------------------------
# Pacing calibration
# ----------------------------------------------------------------------
def test_paced_time_is_uncorrelated_with_host_slowdown():
    """Over a calibration run, paced time does not follow host slowdown
    and is steady where raw time is not.

    The host's own contention phases supply the slowdown; the printed
    ``r_raw`` shows how strongly raw time followed them during the test.
    """
    record = calibrate.calibrate(["tHold"], seconds=180)
    result = calibrate.fit(record["jobs"], record["ref"])
    print(json.dumps(result, indent=1))
    assert len(record["jobs"]) >= 15
    assert abs(result["r_recorded"]) < 0.5
    paced = [
        calibrate.paced(job, record["ref"], EXPONENT)
        for job in record["jobs"]
    ]
    quartiles = statistics.quantiles(paced, n=4)
    assert (quartiles[2] - quartiles[0]) / statistics.median(paced) < 0.06


def test_slowing_the_program_moves_paced_time_in_full():
    """Doing the same analysis twice (program slower, probe untouched)
    doubles paced time."""
    from repro.core.labels import default_policy
    from repro.core.tracker import TaintTracker
    from repro.cpu import compiled_cpu
    from repro.workloads.registry import BENCHMARKS

    compiled_cpu()
    binary = BENCHMARKS["intAVG"].service_program()

    def analyse(times):
        start = pacer.now()
        for _ in range(times):
            TaintTracker(binary, default_policy()).run()
        return pacer.now() - start

    with Pacer() as pacer:
        analyse(1)  # warm
        ratios = [analyse(2) / analyse(1) for _ in range(5)]
    print("double/single paced ratios:", ratios)
    assert 1.85 < statistics.median(ratios) < 2.15


# ----------------------------------------------------------------------
# Layer sensitivity: a 2x slowdown injected into one layer
# ----------------------------------------------------------------------
#: injected bucket -> the buckets whose traced self time it doubles
BLAME = {
    "compiled.eval": ["compiled.eval.self_s"],
    "tracker.state": [
        "tracker.snapshot.self_s",
        "tracker.restore.self_s",
        "tracker.merge.self_s",
        "tracker.cover.self_s",
        "tracker.decode.self_s",
    ],
    "transform": ["transform.self_s"],
}

#: (injected bucket, workload where it is heavy, where it is light)
CASES = [
    ("compiled.eval", "straight_line", None),
    ("tracker.state", "fork_merge", "straight_line"),
    ("transform", "repair_loop", "fork_merge"),
]

#: how far two single one-pass runs' verdict_s may differ by noise alone:
#: per-run IQR is 2-4% on the 2-vCPU shared host the benchmark was tuned
#: on, and single pairs of runs differ by up to ~6%
NOISE = 0.08


@pytest.fixture(scope="module")
def baseline():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = bench(workload, trace=trace)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("bucket,heavy,light", CASES)
def test_layer_slowdown_shows_where_the_layer_is_heavy(
    baseline, bucket, heavy, light
):
    traced = baseline(heavy, 1)
    share = sum(traced[name] for name in BLAME[bucket]) / traced[
        "trace.verdict_s"
    ]
    rise = bench(heavy, inject=bucket)["verdict_s"] / baseline(heavy, 0)[
        "verdict_s"
    ] - 1
    print(f"{bucket} on {heavy}: traced share {share:.4f}, rise {rise:.4f}")
    assert abs(rise - share) < 0.25 * share + NOISE

    # The traced run blames the layer: its self time grows by at least half,
    # and no other bucket that holds a real share of the time grows half as
    # much.  No upper limit: the pacing exponent is fitted on whole
    # analyses, so between two runs at different host load a small,
    # memory-bound function's paced self time can shift by tens of percent
    # (2.0x on a quiet host, 2.7-3.0x with a neighbour process running).
    slowed = bench(heavy, trace=1, inject=bucket)
    before = sum(traced[name] for name in BLAME[bucket])
    after = sum(slowed[name] for name in BLAME[bucket])
    print(f"{bucket}: blamed self time {before:.4f} -> {after:.4f} s")
    assert after / before > 1.5
    for name, value in traced.items():
        if (
            name.endswith(".self_s")
            and name not in BLAME[bucket]
            and not name.startswith("setup.")
            and value > 0.05 * traced["trace.verdict_s"]
        ):
            assert slowed[name] / value - 1 < (after / before - 1) / 2, name

    if light is not None:
        light_rise = bench(light, inject=bucket)["verdict_s"] / baseline(
            light, 0
        )["verdict_s"] - 1
        print(f"{bucket} on {light}: rise {light_rise:.3f}")
        assert light_rise < BOUNDS["verdict_s"]
