"""Fixpoint stamps: the scalar pipeline skips IR it already converged on.

The differential oracle watches every :func:`optimize_proc` call of
real builds.  Whenever a call is about to be skipped, it runs the real
pipeline once on a stamp-free deep copy of the procedure: no pass may
report a change and the copy must print exactly like the original.
The unit tests below pin down what invalidates a stamp.
"""

import copy

import pytest

import repro.core.cloner as cloner
import repro.core.stage as stage
import repro.opt.pass_manager as pass_manager
from repro.core.config import HLOConfig
from repro.core.hlo import run_hlo
from repro.frontend import compile_program
from repro.ir import print_proc
from repro.ir.values import Imm
from repro.linker.toolchain import Toolchain
from repro.opt.pass_manager import (
    FixpointStampError,
    default_pipeline,
    fixpoint_scope,
    has_fixpoint_stamp,
    optimize_proc,
)
from repro.resilience import (
    FaultInjector,
    GuardConfig,
    InjectedFault,
    PassGuard,
    ProcedureSnapshot,
)
from repro.workloads.generator import generate_sources
from repro.workloads.suite import get_workload, workload_names

SOURCE = """
int f(int x) {
    int s = 0;
    int i = 0;
    while (i < x) { s = s + i * (2 + 3); i = i + 1; }
    return s;
}
int main() { print_int(f(input(0))); return 0; }
"""


@pytest.fixture
def oracle(monkeypatch):
    """Wrap ``optimize_proc`` everywhere it is called; returns
    (skipped, stale).

    A stale stamp is collected, not raised: the cloner optimizes new
    clones inside a guarded stage, which would roll the raise back.
    """
    skipped: list = []
    stale: list = []

    def checked(program, proc, pipeline=None, *args, **kwargs):
        if has_fixpoint_stamp(proc, pipeline):
            twin = copy.deepcopy(proc)
            passes = list(pipeline) if pipeline is not None else default_pipeline()
            changed = [name for name, run in passes if run(program, twin)]
            skipped.append(proc.name)
            if changed or print_proc(twin) != print_proc(proc):
                stale.append((proc.name, changed))
            result = optimize_proc(program, proc, pipeline, *args, **kwargs)
            if result:
                stale.append((proc.name, "skipped call reported a change"))
            return result
        return optimize_proc(program, proc, pipeline, *args, **kwargs)

    for module in (pass_manager, stage, cloner):
        monkeypatch.setattr(module, "optimize_proc", checked)
    return skipped, stale


def _cp_build(name, strategy):
    w = get_workload(name)
    Toolchain(
        list(w.sources), train_inputs=[list(t) for t in w.train_inputs]
    ).build("cp", HLOConfig(budget_percent=400, strategy=strategy))


@pytest.mark.parametrize("name", workload_names())
def test_global_cp_build_skips_only_converged_procs(oracle, name):
    skipped, stale = oracle
    _cp_build(name, "global")
    assert skipped
    assert stale == []


@pytest.mark.parametrize("name", ["compress", "li"])
def test_demand_cp_build_skips_only_converged_procs(oracle, name):
    skipped, stale = oracle
    _cp_build(name, "demand")
    assert skipped
    assert stale == []


@pytest.mark.parametrize("seed", range(20))
def test_generated_program_skips_only_converged_procs(oracle, seed):
    skipped, stale = oracle
    run_hlo(compile_program(generate_sources(seed)), HLOConfig())
    assert skipped
    assert stale == []


# ----------------------------------------------------------------------
# What makes and what breaks a stamp
# ----------------------------------------------------------------------


def _program():
    return compile_program([("m", SOURCE)])


def _spied(pipeline, calls):
    """``pipeline`` with every pass counted in ``calls``."""

    def spy(name, run):
        def counted(program, proc):
            calls.append(name)
            return run(program, proc)

        return counted

    return [(name, spy(name, run)) for name, run in pipeline]


def _converged(program, proc, pipeline, guard=None):
    assert optimize_proc(program, proc, pipeline, guard=guard)
    assert has_fixpoint_stamp(proc, pipeline)


def _bump_first_imm(proc):
    """Replace the first instruction that uses an immediate with one
    whose immediate is one larger; returns (old, new)."""

    def bump(op):
        return Imm(op.value + 1) if isinstance(op, Imm) else op

    for block in proc.blocks.values():
        for i, instr in enumerate(block.instrs):
            new = instr.with_operands(bump)
            if new is not instr:
                block.instrs[i] = new
                return instr, new
    raise AssertionError("no instruction with an immediate")


class TestStampLifetime:
    def test_converged_call_stamps_and_next_call_skips(self):
        program, calls = _program(), []
        proc = program.proc("f")
        pipeline = _spied(default_pipeline(), calls)
        with fixpoint_scope():
            _converged(program, proc, pipeline)
            before = len(calls)
            assert not optimize_proc(program, proc, pipeline)
            assert len(calls) == before

    def test_no_stamps_outside_a_scope(self):
        program, calls = _program(), []
        proc = program.proc("f")
        pipeline = _spied(default_pipeline(), calls)
        optimize_proc(program, proc, pipeline)
        assert not has_fixpoint_stamp(proc, pipeline)
        before = len(calls)
        assert not optimize_proc(program, proc, pipeline)
        assert len(calls) == before + len(pipeline)

    def test_run_hlo_leaves_no_stamps(self):
        run_hlo(_program(), HLOConfig())
        assert pass_manager._STAMPS.get() is None

    def test_stamp_is_keyed_by_pipeline(self):
        program = _program()
        proc = program.proc("f")
        with fixpoint_scope():
            _converged(program, proc, default_pipeline())
            assert not has_fixpoint_stamp(proc, default_pipeline()[:-1])


class TestInvalidation:
    def test_with_operands_replacement(self):
        program, calls = _program(), []
        proc = program.proc("f")
        pipeline = _spied(default_pipeline(), calls)
        with fixpoint_scope():
            _converged(program, proc, pipeline)
            # An unchanged operand map keeps the same object, and the stamp.
            for block in proc.blocks.values():
                block.instrs = [i.with_operands(lambda op: op) for i in block.instrs]
            assert has_fixpoint_stamp(proc, pipeline)
            _bump_first_imm(proc)
            assert not has_fixpoint_stamp(proc, pipeline)
            before = len(calls)
            optimize_proc(program, proc, pipeline)
            assert len(calls) > before
            assert has_fixpoint_stamp(proc, pipeline)

    def test_snapshot_restore(self):
        program = _program()
        proc = program.proc("f")
        pipeline = default_pipeline()
        unoptimized = ProcedureSnapshot(proc)
        with fixpoint_scope():
            _converged(program, proc, pipeline)
            converged = ProcedureSnapshot(proc)
            unoptimized.restore(proc)
            assert not has_fixpoint_stamp(proc, pipeline)
            # Restoring the converged state brings back the very
            # instructions the stamp holds.
            converged.restore(proc)
            assert has_fixpoint_stamp(proc, pipeline)

    def test_fault_injector_wrapped_pipeline(self):
        program = _program()
        proc = program.proc("f")
        injector = FaultInjector(seed=3, crash_pass="dce")
        wrapped = injector.wrap_pipeline(default_pipeline())
        guard = PassGuard(GuardConfig(max_failures=10))
        with fixpoint_scope():
            _converged(program, proc, default_pipeline())
            assert not has_fixpoint_stamp(proc, wrapped)
            optimize_proc(program, proc, wrapped, guard=guard)
            assert injector.injected == ["crash:dce:f"]
            assert not has_fixpoint_stamp(proc, wrapped)
            optimize_proc(program, proc, wrapped, guard=guard)
            assert len(injector.injected) == 2

    def _flaky(self, calls):
        failing = {"on": False}

        def flaky(program, proc):
            if failing["on"]:
                raise InjectedFault("flaky")
            return False

        return _spied(default_pipeline() + [("flaky", flaky)], calls), failing

    def test_rollback_in_final_iteration(self):
        program, calls = _program(), []
        proc = program.proc("f")
        pipeline, failing = self._flaky(calls)
        guard = PassGuard(GuardConfig(max_failures=10))
        with fixpoint_scope():
            failing["on"] = True
            optimize_proc(program, proc, pipeline, guard=guard)
            assert guard.failures
            assert not has_fixpoint_stamp(proc, pipeline)
            failing["on"] = False
            before = len(calls)
            assert not optimize_proc(program, proc, pipeline, guard=guard)
            assert len(calls) == before + len(pipeline)
            assert has_fixpoint_stamp(proc, pipeline)

    def test_rollback_in_an_earlier_iteration_still_converges(self):
        program = _program()
        proc = program.proc("f")
        failing = {"on": True}

        def fail_once(program, proc):
            if failing.pop("on", False):
                raise InjectedFault("once")
            return False

        pipeline = [("fail-once", fail_once)] + default_pipeline()
        guard = PassGuard(GuardConfig(max_failures=10))
        with fixpoint_scope():
            assert optimize_proc(program, proc, pipeline, guard=guard)
            assert len(guard.failures) == 1
            assert has_fixpoint_stamp(proc, pipeline)

    def test_quarantine(self):
        program, calls = _program(), []
        proc = program.proc("f")

        def crashing(program, proc):
            raise InjectedFault("always")

        pipeline = _spied(default_pipeline() + [("crash", crashing)], calls)
        guard = PassGuard(GuardConfig(max_failures=1))
        with fixpoint_scope():
            optimize_proc(program, proc, pipeline, guard=guard)
            assert guard.quarantined == {"crash"}
            for _ in range(2):
                before = len(calls)
                assert not optimize_proc(program, proc, pipeline, guard=guard)
                assert len(calls) == before + len(pipeline) - 1
                assert not has_fixpoint_stamp(proc, pipeline)

    def test_iteration_cap_without_convergence(self):
        program, calls = _program(), []
        proc = program.proc("f")

        def liar(program, proc):
            calls.append("liar")
            return True

        pipeline = default_pipeline() + [("liar", liar)]
        with fixpoint_scope():
            assert optimize_proc(program, proc, pipeline, max_iterations=3)
            assert calls == ["liar"] * 3
            assert not has_fixpoint_stamp(proc, pipeline)
            optimize_proc(program, proc, pipeline, max_iterations=3)
            assert len(calls) == 6


class TestCheckedBuilds:
    def _sabotaged(self):
        """The default pipeline plus a pass that, once switched on,
        rewrites the procedure behind the stamp's back."""
        state = {"on": False, "runs": 0}

        def saboteur(program, proc):
            state["runs"] += 1
            if state["on"]:
                _bump_first_imm(proc)
                return True
            return False

        return default_pipeline() + [("saboteur", saboteur)], state

    def test_checked_guard_reruns_a_stamped_proc(self):
        program = _program()
        proc = program.proc("f")
        pipeline, state = self._sabotaged()
        guard = PassGuard(GuardConfig(verify_each_pass=True))
        with fixpoint_scope():
            _converged(program, proc, pipeline, guard=guard)
            runs = state["runs"]
            assert not optimize_proc(program, proc, pipeline, guard=guard)
            assert state["runs"] == runs + 1
            assert has_fixpoint_stamp(proc, pipeline)

    def test_checked_guard_raises_on_a_stale_stamp(self):
        program = _program()
        proc = program.proc("f")
        pipeline, state = self._sabotaged()
        with fixpoint_scope():
            _converged(program, proc, pipeline)
            state["on"] = True
            runs = state["runs"]
            # Unchecked, the stamp is trusted and nothing runs.
            assert not optimize_proc(
                program, proc, pipeline, guard=PassGuard(GuardConfig())
            )
            assert state["runs"] == runs
            with pytest.raises(FixpointStampError):
                optimize_proc(
                    program, proc, pipeline,
                    guard=PassGuard(GuardConfig(verify_each_pass=True)),
                )
