"""Workloads, seeded draws, jobs and the verdict oracle.

A workload is a fixed job set; the seed draws the order in which a run
works through it.  The composition never changes with the seed, so every
draw simulates exactly the same cycles and the same deterministic counts.
Each job goes through a public entry point with the settings ``repro
analyze`` / ``repro repair`` use by default: the dense engine, one job,
the default budget and ``max_cycles=1_000_000``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: ``repro analyze`` / ``repro repair`` default cycle budget
MAX_CYCLES = 1_000_000


@dataclass(frozen=True)
class Job:
    """One closed-loop request: analyse or repair one Table 1 program."""

    kind: str  # "analyze" or "repair"
    program: str

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.program}"


WORKLOADS: Dict[str, tuple] = {
    # Non-forking Table 1 programs: gate evaluation and the SoC floor do
    # the work; the tracker only fingerprints concrete loop branches.
    "straight_line": (Job("analyze", "mult"), Job("analyze", "rle")),
    # Table 2 violators to an insecure verdict: hundreds of
    # snapshot/restore/merge/cover calls per job.
    "fork_merge": (
        Job("analyze", "intAVG"),
        Job("analyze", "tHold"),
        Job("analyze", "div"),
        Job("analyze", "Viterbi"),
    ),
    # analyse -> repair -> re-verify until the repaired binary is secure.
    "repair_loop": (Job("repair", "intAVG"), Job("repair", "tHold")),
}


def draw(workload: str, seed: int) -> List[Job]:
    """The workload's job set in the order seed *seed* draws."""
    jobs = list(WORKLOADS[workload])
    random.Random(f"{workload}/{seed}").shuffle(jobs)
    return jobs


@dataclass
class Outcome:
    """What one job produced, reduced to what the oracle and metrics use."""

    job: Job
    verdict: str
    conditions: List[int]
    #: stats of every analysis the job ran, in order
    analyses: List[dict] = field(default_factory=list)
    masked_stores: int = 0
    code_words: int = 0
    repaired_words: int = 0
    fixes: int = 0

    def counts(self) -> dict:
        """The deterministic identity of the job (no times)."""
        return {
            "verdict": self.verdict,
            "conditions": self.conditions,
            "analyses": len(self.analyses),
            "paths": sum(a["paths"] for a in self.analyses),
            "forks": sum(a["forks"] for a in self.analyses),
            "merges": sum(a["merges"] for a in self.analyses),
            "cycles": sum(a["cycles"] for a in self.analyses),
            "instructions": sum(a["instructions"] for a in self.analyses),
            "violations": sum(a["violations"] for a in self.analyses),
            "peak_merged_states": max(
                a["peak_merged_states"] for a in self.analyses
            ),
            "masked_stores": self.masked_stores,
            "code_words": self.code_words,
            "repaired_words": self.repaired_words,
        }


class AnalysisLog:
    """Collects the stats of every ``TaintTracker.run`` while installed.

    ``secure_compile`` returns only its last analysis; the log sees the
    re-verifications too.  It wraps ``run`` once per call -- no timing,
    so it rides along in untraced runs as well.
    """

    def __init__(self, tracker_cls):
        self.cls = tracker_cls
        self.entries: List[dict] = []
        self._original = None

    def __enter__(self) -> "AnalysisLog":
        original = self._original = self.cls.run
        entries = self.entries

        def run(tracker):
            result = original(tracker)
            stats = result.stats
            entries.append(
                {
                    "paths": stats.paths,
                    "forks": stats.forks,
                    "merges": stats.merges,
                    "cycles": stats.cycles_simulated,
                    "instructions": stats.instructions,
                    "violations": len(result.violations),
                    "conditions": sorted(result.violated_conditions()),
                    "peak_merged_states": stats.peak_merged_states,
                }
            )
            return result

        self.cls.run = run
        return self

    def __exit__(self, *exc) -> None:
        self.cls.run = self._original

    def take(self) -> List[dict]:
        entries, self.entries[:] = list(self.entries), []
        return entries


class Programs:
    """The draw's assembled binaries and sources (built during set-up)."""

    def __init__(self, jobs: List[Job]):
        from repro.workloads.registry import BENCHMARKS

        self.info = {job.program: BENCHMARKS[job.program] for job in jobs}
        self.binaries = {
            name: info.service_program() for name, info in self.info.items()
        }


def run_job(job: Job, programs: Programs, log: AnalysisLog) -> Outcome:
    """Run one job to its final verdict through the public entry points."""
    from repro.core.labels import default_policy
    from repro.core.tracker import TaintTracker
    from repro.transform import secure_compile

    policy = default_policy()
    binary = programs.binaries[job.program]
    if job.kind == "analyze":
        result = TaintTracker(binary, policy, max_cycles=MAX_CYCLES).run()
        return Outcome(
            job,
            verdict=result.verdict,
            conditions=sorted(result.violated_conditions()),
            analyses=log.take(),
            code_words=len(binary.code),
            repaired_words=len(binary.code),
        )
    repaired = secure_compile(
        programs.info[job.program].service_source,
        name=job.program,
        policy=policy,
        max_cycles=MAX_CYCLES,
    )
    return Outcome(
        job,
        verdict=repaired.verdict,
        conditions=sorted(repaired.analysis.violated_conditions()),
        analyses=log.take(),
        masked_stores=repaired.masked_stores,
        code_words=len(binary.code),
        repaired_words=len(repaired.program.code),
        fixes=len(repaired.fixes),
    )


def oracle(outcome: Outcome, programs: Programs) -> Optional[str]:
    """Why *outcome* contradicts the paper's Table 2, or None.

    Table 2: the violators violate sufficient conditions 1 and 2 before
    modification and none after; the other benchmarks violate none.
    """
    job = outcome.job
    violator = programs.info[job.program].expected_violator
    if job.kind == "analyze":
        want = ("insecure", [1, 2]) if violator else ("secure", [])
        got = (outcome.verdict, outcome.conditions)
        if got != want:
            return f"{job.key}: verdict {got}, Table 2 says {want}"
        return None
    if not violator:
        return f"{job.key}: not a Table 2 violator"
    first = outcome.analyses[0]["conditions"]
    if first != [1, 2]:
        return (
            f"{job.key}: the unmodified binary violates {first}, "
            "Table 2 says [1, 2]"
        )
    if outcome.verdict != "secure" or outcome.conditions:
        return (
            f"{job.key}: repaired binary is {outcome.verdict} "
            f"(conditions {outcome.conditions})"
        )
    if outcome.fixes == 0 or len(outcome.analyses) < 2:
        return f"{job.key}: secure without a repair and re-verification"
    return None


def identity_report(counts: Dict[str, dict], recorded: Dict[str, dict]):
    """Lines naming every count that differs from the recorded one."""
    lines = []
    for key, now in sorted(counts.items()):
        then = recorded.get(key)
        if then is None:
            lines.append(f"{key}: no recorded counts")
            continue
        for name in sorted(set(now) | set(then)):
            if now.get(name) != then.get(name):
                lines.append(
                    f"{key}.{name}: recorded {then.get(name)!r}, "
                    f"now {now.get(name)!r}"
                )
    return lines
