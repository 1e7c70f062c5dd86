"""The copy-on-write contract behind cheap rollback snapshots.

A :class:`~repro.resilience.ProcedureSnapshot` copies block lists and
shares the instruction objects with the live IR, which is only sound
if no guarded pass or stage ever edits an instruction that already
sits in a block.  These tests watch every guarded pass application and
every guarded program and region stage of real ``cp`` builds: each
instruction object in scope before the call must print the same after
it, whether the pass kept it, replaced it, or was rolled back.
"""

from collections import Counter

import pytest

from repro.core.config import HLOConfig
from repro.linker.toolchain import Toolchain
from repro.resilience import PassGuard
from repro.workloads.suite import get_workload, workload_names


def _record(instrs):
    return [(instr, str(instr)) for instr in instrs]


def _program_instrs(program):
    for proc in program.all_procs():
        yield from proc.instructions()


@pytest.fixture
def watched(monkeypatch):
    """Patch the guard's three entry points; returns (calls, edited).

    A recorded instruction whose text changed is collected, not raised:
    a raise inside a nested guarded call would be caught and rolled
    back by the enclosing guard.
    """
    calls: Counter = Counter()
    edited: list = []

    def check(kind, name, recorded):
        calls[kind] += 1
        for instr, text in recorded:
            if str(instr) != text:
                edited.append((kind, name, text, str(instr)))

    run_proc_pass = PassGuard.run_proc_pass
    run_program_stage = PassGuard.run_program_stage
    run_region_stage = PassGuard.run_region_stage

    def proc_pass(self, program, proc, name, *args, **kwargs):
        recorded = _record(proc.instructions())
        try:
            return run_proc_pass(self, program, proc, name, *args, **kwargs)
        finally:
            check("proc", name, recorded)

    def program_stage(self, program, name, *args, **kwargs):
        recorded = _record(_program_instrs(program))
        try:
            return run_program_stage(self, program, name, *args, **kwargs)
        finally:
            check("program", name, recorded)

    def region_stage(self, program, procs, name, *args, **kwargs):
        recorded = _record(_program_instrs(program))
        try:
            return run_region_stage(self, program, procs, name, *args, **kwargs)
        finally:
            check("region", name, recorded)

    monkeypatch.setattr(PassGuard, "run_proc_pass", proc_pass)
    monkeypatch.setattr(PassGuard, "run_program_stage", program_stage)
    monkeypatch.setattr(PassGuard, "run_region_stage", region_stage)
    return calls, edited


def _cp_build(name, strategy):
    w = get_workload(name)
    Toolchain(
        list(w.sources), train_inputs=[list(t) for t in w.train_inputs]
    ).build("cp", HLOConfig(budget_percent=400, strategy=strategy))


@pytest.mark.parametrize("name", workload_names())
def test_global_cp_build_never_edits_placed_instructions(watched, name):
    calls, edited = watched
    _cp_build(name, "global")
    assert calls["proc"] > 0 and calls["program"] > 0
    assert edited == []


@pytest.mark.parametrize("name", ["compress", "li"])
def test_demand_cp_build_never_edits_placed_instructions(watched, name):
    calls, edited = watched
    _cp_build(name, "demand")
    assert calls["proc"] > 0 and calls["region"] > 0
    assert edited == []
