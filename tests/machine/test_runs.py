"""Run-level PA8000 charging is exact.

The fast engine hands the machine model one straight-line run per
``on_run`` call; the reference engine delivers ``on_instr``/``on_mem``/
``on_branch`` per instruction.  Every :class:`MachineMetrics` field must
come out identical (floats compared with ``==``), on the whole suite,
on a machine small enough for a run to alias with itself in the
I-cache, and on runs cut short by a trap or the step limit.
"""

from __future__ import annotations

import pytest

from repro.frontend import compile_program
from repro.interp.engine import sink_mode
from repro.interp.fuzz import observe
from repro.interp.interpreter import ENGINES, Interpreter
from repro.interp.errors import ExecError
from repro.linker.toolchain import Toolchain
from repro.machine import DirectMappedCache, MachineConfig, PA8000Model, simulate
from repro.machine.pa8000 import FRAME_BYTES, SIM_STACK_BASE, WORD_BYTES
from repro.workloads.suite import get_workload, workload_names

SCOPES = ("base", "c", "p", "cp")
SMALL = MachineConfig(line_bytes=64, icache_bytes=256, dcache_bytes=512)


@pytest.fixture(scope="module")
def builds():
    """Lazily built ``(workload, scope) -> BuildResult``, shared by the module."""
    cache = {}

    def get(name, scope):
        if name not in cache:
            workload = get_workload(name)
            toolchain = Toolchain(
                list(workload.sources), train_inputs=[list(workload.train_inputs[0])]
            )
            cache[name] = {s: toolchain.build(s) for s in SCOPES}
        return cache[name][scope]

    return get


def _assert_exact(program, inputs, config=None):
    fast, fast_result = simulate(program, inputs, config=config, engine="fast")
    ref, ref_result = simulate(program, inputs, config=config, engine="reference")
    assert fast_result.behavior() == ref_result.behavior()
    assert vars(fast) == vars(ref)


@pytest.mark.parametrize("name", workload_names())
def test_suite_metrics_identical(builds, name):
    inputs = list(get_workload(name).train_inputs[0])
    for scope in SCOPES:
        _assert_exact(builds(name, scope).program, inputs)


@pytest.mark.parametrize("name", ["compress", "li"])
def test_small_machine_metrics_identical(builds, name):
    # 4 I-cache lines of 16 instructions: any run longer than 64
    # instructions evicts its own first line.
    inputs = list(get_workload(name).train_inputs[0])
    for scope in ("base", "cp"):
        _assert_exact(builds(name, scope).program, inputs, SMALL)


def test_capability_negotiation():
    program = compile_program([("m", "int main() { return 0; }")])
    model = PA8000Model(program)
    assert sink_mode(model)[6] is True  # fast engine: runs
    assert sink_mode(model)[0] is False and sink_mode(model)[2] is False
    per_instr = sink_mode(model, runs=False)
    assert per_instr[0] is True and per_instr[2] is True and per_instr[6] is False


def test_touch_lines_equals_per_access():
    # Sequential fetches from one run, accessed one by one and as lines.
    for line_bytes, size in ((32, 128), (64, 256), (16, 4096)):
        one = DirectMappedCache(size, line_bytes)
        run = DirectMappedCache(size, line_bytes)
        for start, count in ((0, 3), (124, 40), (4, 100), (8192, 1), (300, 70)):
            addrs = [start + 4 * i for i in range(count)]
            for addr in addrs:
                one.access(addr)
            lines = range(addrs[0] // line_bytes, addrs[-1] // line_bytes + 1)
            run.touch_lines(run.line_slots(lines), count)
            assert (run.accesses, run.misses, run.tags) == (
                one.accesses, one.misses, one.tags
            )


# A procedure with more than 28 registers (so it spills) whose single
# straight-line block loads and stores several times, then loads from a
# negative address: the run traps midway.  Word ``SET_WORD`` shares a
# default-config D-cache set with the spill slot of a depth-1 frame, so
# the data accesses through ``q`` and the spills evict each other and
# their order inside the run shows in the miss count.
SET_WORD = (SIM_STACK_BASE - FRAME_BYTES - 8) % MachineConfig().dcache_bytes // WORD_BYTES
WIDE = """
int buf[8];
int wide(int a) {
  int v0 = a + 1; int v1 = v0 * 3; int v2 = v1 + v0; int v3 = v2 * v1;
  int v4 = v3 - v2; int v5 = v4 + a; int v6 = v5 * 2; int v7 = v6 + v5;
  int v8 = v7 - v6; int v9 = v8 + v7; int v10 = v9 * v8; int v11 = v10 + 1;
  int v12 = v11 - v10; int v13 = v12 + v11; int v14 = v13 * 2;
  int v15 = v14 + v13; int v16 = v15 - v14; int v17 = v16 + v15;
  int v18 = v17 * 3; int v19 = v18 + v17; int v20 = v19 - v18;
  int v21 = v20 + v19; int v22 = v21 * 2; int v23 = v22 + v21;
  int v24 = v23 - v22; int v25 = v24 + v23; int v26 = v25 * 2;
  int v27 = v26 + v25; int v28 = v27 - v26; int v29 = v28 + v27;
  buf[0] = v29; buf[1] = v28 + v27; buf[2] = buf[0] + buf[1];
  buf[3] = buf[2] * v26; buf[4] = buf[3] - buf[0];
  int q = a + SET_OFFSET;
  *q = v29; *q = *q + v28; *q = *q + v27; *q = *q + v26; *q = *q + v25;
  *q = *q + v24; *q = *q + v23; *q = *q + v22; *q = *q + v21;
  int p = a - 100;
  int y = *p;
  buf[5] = y;
  return y + v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + v10 + v11
    + v12 + v13 + v14 + v15 + v16 + v17 + v18 + v19 + v20 + v21 + v22 + v23
    + v24 + v25 + v26 + v27 + v28 + v29;
}
int main() { print_int(wide(input(0))); return 0; }
""".replace("SET_OFFSET", str(SET_WORD - 5))
OPTIMIZED = tuple(e for e in ENGINES if e != "reference")


class TestTruncatedRuns:
    def _program(self):
        program = compile_program([("m", WIDE)])
        assert PA8000Model(program)._spill_rates["wide"] > 0
        assert len(program.proc("wide").blocks) == 1
        return program

    def test_trap_mid_run(self):
        program = self._program()
        want = observe(program, [5], "reference", "pa8000")
        assert want[0] == ("execerror", "load from negative address -95")
        for engine in OPTIMIZED:
            assert observe(program, [5], engine, "pa8000") == want, engine

    def test_step_limit_anywhere_in_the_run(self):
        program = self._program()
        interp = Interpreter(program, [5], engine="reference")
        with pytest.raises(ExecError):
            interp.run()
        # Every limit up to the trapping load, which ends the sweep.
        for max_steps in range(1, interp.steps + 1):
            want = observe(program, [5], "reference", "pa8000", max_steps)
            for engine in OPTIMIZED:
                got = observe(program, [5], engine, "pa8000", max_steps)
                assert got == want, (engine, max_steps)

    def test_block_without_terminator(self):
        # The trailing segment of a block that falls off its end is a
        # run with no boundary instruction.
        program = compile_program([("m", """
            int g[4];
            int main() { int x = input(0); g[1] = x; int y = g[1] + 2;
                         print_int(y); return y; }
        """)])
        main = program.proc("main")
        del main.blocks[main.entry].instrs[-2:]  # the print_int call and ret
        want = observe(program, [3], "reference", "pa8000")
        assert want[0] == ("execerror", "fell off the end of block at @main:entry[8]")
        for engine in OPTIMIZED:
            assert observe(program, [3], engine, "pa8000") == want
        for max_steps in range(2, 8):  # limits inside the trailing run
            want = observe(program, [3], "reference", "pa8000", max_steps)
            assert want[0][0] == "steplimit"
            for engine in OPTIMIZED:
                assert observe(program, [3], engine, "pa8000", max_steps) == want
