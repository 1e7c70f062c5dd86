"""Rollback of a pass that did real work before it failed.

The injected passes in :class:`~repro.resilience.FaultInjector` raise
before touching the IR, so they never test that a rollback undoes a
*partial* rewrite.  Here each real pass of ``default_pipeline()`` runs
to completion on a procedure and then raises: the guard must put the
procedure back byte-for-byte, although the snapshot shares its
instruction objects with the IR the pass just rewrote.
"""

import pytest

from repro.ir import print_proc
from repro.opt.pass_manager import default_pipeline, optimize_program
from repro.resilience import GuardConfig, InjectedFault, PassGuard
from repro.workloads.suite import get_workload

PASS_NAMES = [name for name, _run in default_pipeline()]


def _half_applied_pipeline(victim):
    """``default_pipeline()`` with ``victim`` made to raise after running,
    followed by a check of the rolled-back procedure."""
    pending = {}
    mismatched = []
    rewrites = []

    def fail_after(run):
        def half_applied(program, proc):
            before = print_proc(proc)
            pending[proc.name] = before
            run(program, proc)
            if print_proc(proc) != before:
                rewrites.append(proc.name)
            raise InjectedFault("{} failed after running".format(victim))

        return half_applied

    def check_rollback(program, proc):
        before = pending.pop(proc.name, None)
        if before is not None and print_proc(proc) != before:
            mismatched.append(proc.name)
        return False

    pipeline = []
    for name, run in default_pipeline():
        if name == victim:
            pipeline.append((name, fail_after(run)))
            pipeline.append(("check-rollback", check_rollback))
        else:
            pipeline.append((name, run))
    return pipeline, mismatched, rewrites


@pytest.mark.parametrize("victim", PASS_NAMES)
def test_half_applied_pass_rolls_back_exactly(victim):
    rewrites = []
    for workload in ("li", "compress"):
        program = get_workload(workload).compile()
        pipeline, mismatched, rewritten = _half_applied_pipeline(victim)
        # Never quarantine: every procedure must take the failing path.
        guard = PassGuard(GuardConfig(max_failures=10**9))
        optimize_program(program, pipeline, guard=guard, phase="input")
        assert mismatched == [], (workload, mismatched)
        assert guard.failures and all(
            f.pass_name == victim for f in guard.failures
        )
        rewrites += rewritten
    # The pass really did rewrite something before failing.
    assert rewrites
