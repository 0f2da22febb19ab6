"""Typed error taxonomy for the GLIFT toolflow.

Every failure the pipeline can surface to a caller derives from
:class:`ReproError`, which carries a stable machine-readable ``code``, the
pipeline ``phase`` it belongs to, a ``retriable`` flag (is re-running the
same invocation plausibly useful?) and the process exit code the CLI maps
it to.  The contract this module backs is simple: the analyzer either
returns an :class:`~repro.core.tracker.AnalysisResult` or raises a
:class:`ReproError` -- never a bare traceback.

Exit-code table (documented in DESIGN.md and enforced by ``repro.cli``):

====  =======================================================
code  meaning
====  =======================================================
0     analysis verdict ``secure``
1     analysis verdict ``insecure``
2     fundamental violation (repair cannot converge)
3     analysis verdict ``inconclusive`` (budget exhausted)
4     input error (missing/invalid source, bad arguments)
5     checkpoint error (corrupt, stale or incompatible file)
6     analysis/simulation error (typed internal failure)
130   interrupted (SIGINT/SIGTERM; checkpoint saved if asked)
====  =======================================================
"""

from __future__ import annotations

from typing import Any, Dict

EXIT_SECURE = 0
EXIT_INSECURE = 1
EXIT_FUNDAMENTAL = 2
EXIT_INCONCLUSIVE = 3
EXIT_INPUT = 4
EXIT_CHECKPOINT = 5
EXIT_ANALYSIS = 6
EXIT_INTERRUPTED = 130

#: Exit code for each analysis verdict (``repro analyze``).
VERDICT_EXIT_CODES = {
    "secure": EXIT_SECURE,
    "insecure": EXIT_INSECURE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class ReproError(Exception):
    """Base class of every typed toolflow error.

    Subclasses override the class attributes; per-instance overrides and
    arbitrary structured context go through the constructor keywords.
    """

    code: str = "REPRO_ERROR"
    phase: str = "unknown"  # io|explore|check|repair|checkpoint|simulate
    retriable: bool = False
    exit_code: int = EXIT_ANALYSIS

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        for attr in ("code", "phase", "retriable", "exit_code"):
            if attr in context:
                setattr(self, attr, context.pop(attr))
        self.context: Dict[str, Any] = context

    def to_document(self) -> Dict[str, Any]:
        """The ``--json`` error document (stable, machine-readable)."""
        return {
            "code": self.code,
            "phase": self.phase,
            "retriable": self.retriable,
            "exit_code": self.exit_code,
            "message": str(self),
            "context": dict(self.context),
        }

    def render(self) -> str:
        """One-line human rendering, ``error[CODE]: message``."""
        return f"error[{self.code}]: {self}"


class InputError(ReproError):
    """The user's input (source file, arguments) cannot be used.

    Not retriable: the input is deterministic -- a file that does not
    assemble now will not assemble on the next attempt either.  The
    service's retry classifier fails such jobs fast, preserving exit
    code 4.
    """

    code = "INPUT"
    phase = "io"
    exit_code = EXIT_INPUT


class AnalysisError(ReproError):
    """The exploration cannot proceed soundly (internal invariant).

    Not retriable: exploration is deterministic, so a broken invariant
    reproduces on every rerun of the same program/policy; retrying only
    burns cycles on the identical failure.
    """

    code = "ANALYSIS"
    phase = "explore"


class SimulationError(AnalysisError):
    """The gate-level substrate failed underneath the tracker.

    Retriable: a transient fault (including an injected one) may not
    recur, and the exploration state it destroyed is rebuilt from the
    last checkpoint on retry.
    """

    code = "SIMULATION"
    phase = "simulate"
    retriable = True


class ForkError(AnalysisError):
    """PC concretisation at a fork site failed unexpectedly.

    Not retriable (inherited): fork sites are a pure function of the
    exploration state, so the same snapshot concretises -- or fails to
    -- identically on every attempt.
    """

    code = "FORK"


class MalformedCodesError(AnalysisError):
    """A simulation state holds net codes outside ``0..5``.

    Raised by :meth:`~repro.sim.compiled.CompiledCircuit.set_dff_state`
    and by both gate-evaluation backends before a bad code can select a
    wrong (numpy) or out-of-bounds (native) LUT entry.  Not retriable
    (inherited): the same state is malformed on every attempt.
    """

    code = "MALFORMED_CODES"
    phase = "simulate"


class CheckpointError(ReproError):
    """A checkpoint file is corrupt, stale, or version-incompatible.

    Not retriable: the file's bytes do not change between attempts.
    The *job* may still be rerunnable from scratch, which is a caller
    decision (the service worker ignores unusable checkpoints and
    starts fresh rather than failing the attempt).
    """

    code = "CHECKPOINT"
    phase = "checkpoint"
    exit_code = EXIT_CHECKPOINT


class AnalysisInterrupted(ReproError):
    """Cooperative interrupt (SIGINT/SIGTERM) stopped the exploration.

    ``context["checkpoint"]`` names the saved checkpoint file when the run
    was started with one, so the caller can resume.

    Retriable: the interrupt says nothing about the job itself, and the
    checkpoint written on the way out makes the retry cheap -- the
    service treats a drained worker's 130 exactly like any other
    retriable end and resumes from that checkpoint.
    """

    code = "INTERRUPTED"
    phase = "explore"
    retriable = True
    exit_code = EXIT_INTERRUPTED

    @property
    def checkpoint_path(self):
        return self.context.get("checkpoint")


class InjectedFault(SimulationError):
    """A deliberately injected fault reached the resilience boundary.

    Retriable (inherited from :class:`SimulationError`): injected
    faults model transients, and the chaos suites rely on retries
    clearing them once the injector's budget is spent.
    """

    code = "FAULT_INJECTED"


def taxonomy() -> tuple:
    """The full error taxonomy as ``(class, code, phase, retriable,
    exit_code)`` rows, including the leaves that live outside this
    module (``TrackerError``, ``FundamentalViolation``).

    This is the table the analysis service's retry classifier keys on:
    a test pins it verbatim so a changed ``retriable`` flag or exit
    code is a reviewed decision, never silent drift.
    """
    from repro.core.tracker import TrackerError
    from repro.transform import FundamentalViolation

    classes = (
        ReproError,
        InputError,
        AnalysisError,
        SimulationError,
        ForkError,
        MalformedCodesError,
        TrackerError,
        CheckpointError,
        AnalysisInterrupted,
        InjectedFault,
        FundamentalViolation,
    )
    return tuple(
        (cls, cls.code, cls.phase, cls.retriable, cls.exit_code)
        for cls in classes
    )
