"""End-to-end tests for Algorithm 1 on the gate-level SoC.

These replay the paper's motivating scenarios (Figures 3-5, 8) as full
analyses and check the exploration machinery (fork, merge, POR
convergence, watchdog fast-forward).
"""

import pytest

from repro.core import TaintTracker, default_policy, secret_policy
from repro.core.labels import SecurityPolicy
from repro.core.violations import ViolationKind
from repro.isa.assembler import assemble

SYS_WRAP = """
.task sys trusted
start:
    mov #0x0FFE, sp
    call #app
    jmp start
.task app untrusted
app:
{body}
    ret
"""


def analyze(body, name="t", policy=None, **kwargs):
    program = assemble(SYS_WRAP.format(body=body), name=name)
    return TaintTracker(program, policy=policy, **kwargs).run()


class TestCleanPrograms:
    def test_figure3_clean_application(self):
        """Tainted task touching only tainted resources verifies SECURE."""
        result = analyze(
            """
    mov &P1IN, r4
    and #0x03FF, r4
    bis #0x0400, r4
    mov &P1IN, r5
    mov r5, 0(r4)
    mov @r4, r6
    mov r6, &P2OUT
            """
        )
        assert result.secure
        assert result.violations == []

    def test_trusted_code_may_use_untainted_ports(self):
        program = assemble(
            ".task sys trusted\n"
            "    mov &P3IN, r4\n"
            "    mov r4, &P4OUT\n"
            "    halt\n",
            name="trusted_io",
        )
        result = TaintTracker(program).run()
        # unknown (but untainted) branch-free data flow: secure
        assert result.secure

    def test_untrusted_task_may_not_write_untainted_port(self):
        """Condition 5 forbids tainted code writing untainted ports even
        with untainted data."""
        result = analyze("    mov #5, r4\n    mov r4, &P4OUT")
        assert not result.secure
        assert 5 in result.violated_conditions()

    def test_restart_loop_converges(self):
        result = analyze("    nop\n    nop")
        assert result.secure
        assert result.stats.paths == 1
        assert result.stats.terminations_by_merge >= 1

    def test_halt_without_watchdog_ends(self):
        program = assemble(
            ".task sys trusted\n    mov #1, r4\n    halt\n", name="h"
        )
        result = TaintTracker(program).run()
        assert result.secure
        assert any(
            node.end_reason == "halt" for node in result.tree.nodes.values()
        )


class TestViolatingPrograms:
    def test_figure4_unmasked_store(self):
        result = analyze(
            """
    mov &P1IN, r4
    mov &P1IN, r5
    mov r5, 0(r4)
            """,
            name="fig4",
        )
        assert not result.secure
        assert result.violated_conditions() == {1, 2}
        assert len(result.violating_stores()) == 1
        kinds = {v.kind for v in result.violations}
        assert ViolationKind.TAINTED_WRITE_UNTAINTED_MEMORY in kinds
        assert ViolationKind.WATCHDOG_TAINTED in kinds

    def test_figure5_masked_store_is_secure(self):
        result = analyze(
            """
    mov &P1IN, r4
    and #0x03FF, r4
    bis #0x0400, r4
    mov &P1IN, r5
    mov r5, 0(r4)
            """,
            name="fig5",
        )
        assert result.secure

    def test_input_dependent_control_flow(self):
        result = analyze(
            """
    mov &P1IN, r4
    tst r4
    jz app_skip
    nop
app_skip:
            """,
            name="ctrl",
        )
        assert not result.secure
        assert result.violated_conditions() == {1}
        assert result.tasks_needing_watchdog() == ["app"]
        assert result.stats.forks >= 1

    def test_untainted_input_branches_are_fine(self):
        """Unknown-but-untainted control flow forks but stays secure."""
        result = analyze(
            """
    mov &P3IN, r4
    tst r4
    jz app_skip
    nop
app_skip:
            """
        )
        assert result.secure
        assert result.stats.forks >= 1

    def test_direct_tainted_write_to_untainted_port(self):
        result = analyze("    mov &P1IN, r4\n    mov r4, &P4OUT")
        assert not result.secure
        assert 5 in result.violated_conditions()

    def test_trusted_read_of_tainted_port(self):
        program = assemble(
            ".task sys trusted\n    mov &P1IN, r4\n    halt\n", name="c4"
        )
        result = TaintTracker(program).run()
        assert 4 in result.violated_conditions()

    def test_trusted_load_from_tainted_partition(self):
        program = assemble(
            ".task sys trusted\n    mov &0x0400, r4\n    halt\n", name="c3"
        )
        result = TaintTracker(program).run()
        assert 3 in result.violated_conditions()

    def test_untrusted_may_read_own_partition(self):
        result = analyze("    mov &0x0400, r4\n    mov r4, &P2OUT")
        assert result.secure


class TestWatchdogMechanism:
    WATCHDOG_PROGRAM = """
.task sys trusted
start:
    mov #0x0FFE, sp
    mov #0x5a03, &WDTCTL
    br #app
.task app untrusted
app:
    mov &P1IN, r4
    tst r4
    jz app_skip
    nop
app_skip:
idle:
    jmp idle
"""

    def test_watchdog_bounded_tainted_control_is_secure(self):
        program = assemble(self.WATCHDOG_PROGRAM, name="fig8")
        result = TaintTracker(program).run()
        assert result.secure
        assert result.tasks_needing_watchdog() == ["app"]
        # idle loop was fast-forwarded to the POR
        assert result.stats.fast_forwarded_cycles > 0

    def test_por_convergence_terminates(self):
        program = assemble(self.WATCHDOG_PROGRAM, name="fig8")
        result = TaintTracker(program).run()
        assert "POR" in [
            key for key in result.tree.nodes and ["POR"]
        ] or result.stats.terminations_by_merge >= 1

    def test_tainted_task_writing_watchdog_is_flagged(self):
        result = analyze(
            """
    mov &P1IN, r4
    mov r4, &WDTCTL
            """
        )
        assert not result.secure
        kinds = {v.kind for v in result.violations}
        assert ViolationKind.WATCHDOG_TAINTED in kinds


class TestAnalysisModes:
    def test_strict_conditions_flag_residual_taint(self):
        policy = SecurityPolicy(strict_conditions=True)
        result = analyze(
            """
    mov &P1IN, r4
    and #0x03FF, r4
    bis #0x0400, r4
    mov &P1IN, r5
    mov r5, 0(r4)
            """,
            policy=policy,
        )
        # registers keep taint when control returns to sys: strict C1 fires
        assert not result.secure
        assert 1 in result.violated_conditions()

    def test_secret_policy_tracks_other_ports(self):
        program = assemble(
            ".task sys trusted\n"
            "    mov &P5IN, r4\n"
            "    mov r4, &P4OUT\n"
            "    halt\n",
            name="secrecy",
        )
        result = TaintTracker(program, policy=secret_policy()).run()
        assert not result.secure
        assert 5 in result.violated_conditions()
        # under the *untrusted* policy the same program is fine on P5
        result2 = TaintTracker(program, policy=default_policy()).run()
        assert 5 not in result2.violated_conditions()

    def test_tainted_code_words_mode(self):
        policy = SecurityPolicy(taint_code_words=True)
        result = analyze("    nop", policy=policy)
        # tainted instruction words immediately taint control flow hints
        assert any(
            v.kind
            in (
                ViolationKind.TAINTED_CONTROL_FLOW,
                ViolationKind.TAINTED_STATE_IN_TRUSTED_CODE,
            )
            for v in result.violations
        ) or not result.secure

    def test_incomplete_exploration_is_not_secure(self):
        program = assemble(
            """
.task sys trusted
    mov &P3IN, r4
    mov r4, pc
            """,
            name="wild",
        )
        result = TaintTracker(program).run()
        assert result.stats.incomplete_paths >= 1
        assert not result.secure

    def test_report_renders(self):
        result = analyze("    mov &P1IN, r4\n    mov r4, &P4OUT")
        text = result.report()
        assert "INSECURE" in text
        assert "paths=" in text

    def test_tree_structure(self):
        result = analyze(
            """
    mov &P3IN, r4
    tst r4
    jz app_skip
    nop
app_skip:
            """
        )
        tree = result.tree
        assert len(tree) >= 3
        root = tree.root
        assert root is not None and root.children
        assert "node 0" in tree.render()


class _CountingInjector:
    """Consulted on every shadow decode; fails only the *fail_at*-th."""

    def __init__(self, fail_at=None):
        self.decodes = 0
        self.fail_at = fail_at

    def on_decode(self, address, cycle):
        self.decodes += 1
        return self.decodes == self.fail_at

    def on_step(self, soc):
        pass

    def on_snapshot(self, snapshot):
        return snapshot


class TestShadowDecode:
    def _mult(self):
        from repro.workloads.registry import BENCHMARKS

        return assemble(BENCHMARKS["mult"].service_source, name="mult")

    def test_decodes_each_fetch_address_once(self, monkeypatch):
        import repro.core.tracker as tracker_module

        addresses = []
        original = tracker_module.decode

        def counting(words, address):
            addresses.append(address)
            return original(words, address)

        monkeypatch.setattr(tracker_module, "decode", counting)
        result = TaintTracker(self._mult()).run()
        assert len(addresses) == len(set(addresses))
        # mult loops: far more fetches than distinct addresses.
        assert result.stats.instructions > 4 * len(addresses)

    def test_injector_is_consulted_before_the_memo(self):
        from repro.resilience import install_injector

        program = self._mult()
        counting = _CountingInjector()
        install_injector(counting)
        try:
            clean = TaintTracker(program).run()
            # Fail a decode late in the run, when every address of the
            # loop is already memoised.
            failing = _CountingInjector(fail_at=counting.decodes - 5)
            install_injector(failing)
            faulted = TaintTracker(program).run()
        finally:
            install_injector(None)
        assert counting.decodes == clean.stats.instructions
        assert failing.decodes == failing.fail_at
        assert faulted.stats.instructions < clean.stats.instructions
