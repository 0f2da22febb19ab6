"""The typed error taxonomy: hierarchy, exit codes, documents."""

import pytest

from repro.core.tracker import TrackerError
from repro.resilience import (
    AnalysisError,
    AnalysisInterrupted,
    CheckpointError,
    EXIT_CHECKPOINT,
    EXIT_FUNDAMENTAL,
    EXIT_INPUT,
    EXIT_INTERRUPTED,
    ForkError,
    InjectedFault,
    InputError,
    ReproError,
    SimulationError,
    VERDICT_EXIT_CODES,
)
from repro.transform import FundamentalViolation


class TestHierarchy:
    def test_every_leaf_is_a_repro_error(self):
        for cls in (
            InputError,
            AnalysisError,
            SimulationError,
            ForkError,
            CheckpointError,
            AnalysisInterrupted,
            InjectedFault,
        ):
            assert issubclass(cls, ReproError)

    def test_legacy_errors_joined_the_taxonomy(self):
        # The pre-existing error types must be catchable as ReproError so
        # one except clause at the CLI boundary covers everything.
        assert issubclass(TrackerError, AnalysisError)
        assert issubclass(TrackerError, ReproError)
        assert issubclass(FundamentalViolation, ReproError)

    def test_fork_error_is_an_analysis_error(self):
        assert issubclass(ForkError, AnalysisError)

    def test_injected_fault_is_a_simulation_error(self):
        assert issubclass(InjectedFault, SimulationError)


class TestExitCodes:
    def test_verdict_exit_codes(self):
        assert VERDICT_EXIT_CODES == {
            "secure": 0,
            "insecure": 1,
            "inconclusive": 3,
        }

    def test_error_exit_codes_documented_and_distinct(self):
        assert InputError("x").exit_code == EXIT_INPUT == 4
        assert CheckpointError("x").exit_code == EXIT_CHECKPOINT == 5
        assert AnalysisError("x").exit_code == 6
        assert AnalysisInterrupted("x").exit_code == EXIT_INTERRUPTED == 130
        assert FundamentalViolation("x").exit_code == EXIT_FUNDAMENTAL == 2
        # No verdict code collides with an error code.
        codes = set(VERDICT_EXIT_CODES.values())
        assert codes.isdisjoint({4, 5, 6, 2, 130})


class TestTaxonomyTable:
    """Pin the full (code, phase, retriable, exit_code) table.

    The analysis service's retry classifier keys on ``retriable`` and
    preserves ``exit_code`` verbatim, so any change here must be a
    reviewed decision -- this test turns silent drift into a diff.
    """

    EXPECTED = {
        "REPRO_ERROR": ("unknown", False, 6),
        "INPUT": ("io", False, 4),
        "ANALYSIS": ("explore", False, 6),
        "SIMULATION": ("simulate", True, 6),
        "FORK": ("explore", False, 6),
        "MALFORMED_CODES": ("simulate", False, 6),
        "TRACKER": ("explore", False, 6),
        "CHECKPOINT": ("checkpoint", False, 5),
        "INTERRUPTED": ("explore", True, 130),
        "FAULT_INJECTED": ("simulate", True, 6),
        "FUNDAMENTAL_VIOLATION": ("repair", False, 2),
    }

    def test_full_table_matches(self):
        from repro.resilience import taxonomy

        rows = {
            code: (phase, retriable, exit_code)
            for _, code, phase, retriable, exit_code in taxonomy()
        }
        assert rows == self.EXPECTED

    def test_taxonomy_covers_every_leaf_once(self):
        from repro.resilience import taxonomy

        codes = [code for _, code, *_ in taxonomy()]
        assert len(codes) == len(set(codes))

    def test_retriable_set_is_exactly_the_transient_failures(self):
        """Only interrupts and simulation transients retry; everything
        deterministic (input, invariants, corrupt files) fails fast."""
        from repro.resilience import taxonomy

        retriable = {code for _, code, _, r, _ in taxonomy() if r}
        assert retriable == {"SIMULATION", "INTERRUPTED", "FAULT_INJECTED"}


class TestDocuments:
    def test_to_document_shape(self):
        error = SimulationError("boom at cycle 7", cycle=7, paths=2)
        doc = error.to_document()
        assert doc["code"] == "SIMULATION"
        assert doc["phase"] == "simulate"
        assert doc["retriable"] is True
        assert doc["exit_code"] == 6
        assert doc["message"] == "boom at cycle 7"
        assert doc["context"] == {"cycle": 7, "paths": 2}

    def test_render_names_the_code(self):
        assert InputError("no such file").render() == (
            "error[INPUT]: no such file"
        )

    def test_interrupted_carries_checkpoint_path(self):
        error = AnalysisInterrupted(
            "interrupted", checkpoint="/tmp/x.ckpt", reason="SIGINT"
        )
        assert error.checkpoint_path == "/tmp/x.ckpt"
        assert error.retriable is True
        bare = AnalysisInterrupted("interrupted")
        assert bare.checkpoint_path is None

    def test_context_does_not_eat_message(self):
        error = ForkError("pc smeared", pc=0x1234, cycle=9, forks=65)
        assert "pc smeared" in str(error)
        assert error.context["pc"] == 0x1234

    def test_catchable_as_plain_exception(self):
        with pytest.raises(Exception):
            raise CheckpointError("bad magic")
