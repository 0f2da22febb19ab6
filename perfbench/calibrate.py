"""Calibrate the pacer: reference probe time and slowdown exponent.

Runs analyses closed-loop for a while under one pacer and records per
job the wall time outside probes, the time-weighted probe slowdown and
the slices needed to re-pace the job with any exponent.  The host's own
contention phases supply the range of slowdown, so run it long enough to
see several of them.  The exponent that decorrelates paced time from
slowdown is the slope of log(raw time) on log(slowdown), after removing
each program's mean.

Usage (from the repository root)::

    python3 perfbench/calibrate.py --minutes 10 \
        --programs intAVG,tHold,mult --out calibration.json

It prints the fitted exponent, the correlation of paced time with
slowdown at the fitted and at the recorded exponent, and a suggested
``REF_PROBE_S`` (the 5th percentile of probe levels seen).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from pace import EXPONENT, REF_PROBE_S, Pacer  # noqa: E402

def job_figures(job: dict, slices: list, ref: float) -> dict:
    """Effective wall, time-weighted slowdown and the job's slices."""
    t0, t1 = job["start"], job["end"]
    parts = []
    for mark, end, level in slices:
        overlap = min(end, t1) - max(mark, t0)
        if overlap > 0:
            parts.append((overlap, level))
    wall = sum(p for p, _ in parts)
    slowdown = sum(p * level for p, level in parts) / wall / ref
    return {"wall": wall, "slowdown": slowdown, "parts": parts}


def paced(figures: dict, ref: float, exponent: float) -> float:
    return sum(p * (ref / level) ** exponent for p, level in figures["parts"])


def fit(jobs: list, ref: float) -> dict:
    """Fitted exponent and correlations of paced time with slowdown."""
    by_program = {}
    for job in jobs:
        by_program.setdefault(job["program"], []).append(job)
    xs, ys = [], []
    for group in by_program.values():
        logs = [math.log(j["slowdown"]) for j in group]
        logw = [math.log(j["wall"]) for j in group]
        mx, my = statistics.fmean(logs), statistics.fmean(logw)
        xs += [x - mx for x in logs]
        ys += [y - my for y in logw]
    sxx = sum(x * x for x in xs)
    exponent = sum(x * y for x, y in zip(xs, ys)) / sxx if sxx else 1.0

    def correlation(alpha: float) -> float:
        rel, slow = [], []
        for group in by_program.values():
            values = [paced(j, ref, alpha) for j in group]
            centre = statistics.median(values)
            rel += [v / centre for v in values]
            slow += [j["slowdown"] for j in group]
        return statistics.correlation(rel, slow)

    return {
        "exponent": exponent,
        "r_raw": correlation(0.0),
        "r_fitted": correlation(exponent),
        "r_recorded": correlation(EXPONENT),
        "slowdown_range": [
            min(j["slowdown"] for j in jobs),
            max(j["slowdown"] for j in jobs),
        ],
    }


def calibrate(programs, seconds: float) -> dict:
    """Run the calibration loop; returns jobs (with slices) and probes."""
    from repro.core.labels import default_policy
    from repro.core.tracker import TaintTracker
    from repro.cpu import compiled_cpu
    from repro.workloads.registry import BENCHMARKS

    compiled_cpu()
    binaries = {p: BENCHMARKS[p].service_program() for p in programs}
    jobs = []
    with Pacer() as pacer:
        begin = perf_counter()
        while perf_counter() - begin < seconds:
            program = programs[len(jobs) % len(programs)]
            paced_start = pacer.mark()
            start = perf_counter()
            TaintTracker(binaries[program], default_policy()).run()
            end = perf_counter()
            jobs.append(
                {
                    "program": program,
                    "start": start,
                    "end": end,
                    "paced": pacer.mark() - paced_start,
                }
            )
    for job in jobs:
        job.update(job_figures(job, pacer.slices, pacer.ref))
    return {
        "jobs": jobs,
        "ref_suggested": sorted(pacer.probes)[len(pacer.probes) // 20],
        "ref": pacer.ref,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--minutes", type=float, default=10.0)
    parser.add_argument("--programs", default="intAVG,tHold,mult")
    parser.add_argument("--out", help="write the per-job record here")
    args = parser.parse_args(argv)
    record = calibrate(args.programs.split(","), args.minutes * 60)
    result = fit(record["jobs"], record["ref"])
    result["ref_suggested"] = record["ref_suggested"]
    result["ref_recorded"] = REF_PROBE_S
    result["exponent_recorded"] = EXPONENT
    result["jobs"] = len(record["jobs"])
    if args.out:
        Path(args.out).write_text(json.dumps(record))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
