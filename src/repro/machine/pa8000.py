"""A trace-driven PA8000-style machine model.

The paper explains its Figure 7 simulation results through five machine
effects, all modelled here:

- **retired instructions** drop when calls are inlined, because the
  call-convention overhead (caller-save stores/reloads, outgoing
  argument traffic) disappears with the call;
- **D-cache accesses** drop for the same reason ("a big part of this
  dramatic drop is the elimination of caller and callee register save
  operations at call sites that have been inlined");
- **I-cache** behaviour reflects the code expansion: a bigger image
  raises the miss *rate* even as total accesses fall;
- **branches** include calls and returns; the PA8000 "always
  mispredicts procedure return branches", and conditional branches use
  a PC-indexed two-bit predictor subject to collisions;
- **cycles** combine issue-limited execution with miss and
  misprediction penalties.

Capacities are scaled to our workload sizes (DESIGN.md, substitutions).

The model is an ``instr_runs`` sink: the fast engine hands it one
straight-line run per callback, and it charges the run's fetches,
spills, data accesses and branch at once, exactly as the per-instruction
events would (docs/machine.md, "Charging a run").  The per-instruction
callbacks the other engines deliver go through the same code as runs of
one instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..interp.events import EventSink, Run
from ..interp.interpreter import (
    DEFAULT_ENGINE,
    DEFAULT_MAX_STEPS,
    Interpreter,
    Result,
)
from ..ir.instructions import Load, Store
from ..ir.program import Program
from .branch import TwoBitPredictor
from .cache import DirectMappedCache
from .layout import CodeLayout
from .metrics import MachineMetrics

WORD_BYTES = 8
SIM_STACK_BASE = 0x3000_0000 * WORD_BYTES
FRAME_BYTES = 64


@dataclass
class MachineConfig:
    """Machine parameters (defaults approximate a scaled-down PA8000)."""

    icache_bytes: int = 8192
    dcache_bytes: int = 8192
    line_bytes: int = 32
    predictor_entries: int = 256
    issue_width: float = 2.0
    icache_miss_penalty: float = 20.0
    dcache_miss_penalty: float = 20.0
    mispredict_penalty: float = 5.0
    # Calling convention: registers saved/restored around a call, and
    # the register-argument budget beyond which arguments go to memory.
    max_save_regs: int = 6
    reg_args: int = 4
    # Cost of a runtime-library (builtin) call body, in instructions.
    builtin_instrs: int = 4
    # Register pressure: routines whose virtual-register count exceeds
    # the register file spill — extra memory traffic proportional to the
    # excess, charged per executed instruction.  This is the effect the
    # paper's cold-site penalty guards against ("increases in register
    # pressure which push spills into critical code paths") and what
    # eventually bends the Figure 8 curves back up under unbounded
    # inlining.  The PA-RISC file has 31 GPRs; ~28 are allocatable.
    reg_file: int = 28
    spill_rate_per_reg: float = 0.004
    max_spill_rate: float = 0.35


def _accrue(acc: float, rate: float, count: int) -> Tuple[float, List[int]]:
    """Spill accrual over ``count`` instructions from accumulator ``acc``:
    the exit accumulator (the same float additions, in the same order,
    as accruing per instruction) and the positions that spill."""
    spilled: List[int] = []
    for i in range(count):
        acc += rate
        if acc >= 1.0:
            acc -= 1.0
            spilled.append(i)
    return acc, spilled


class PA8000Model(EventSink):
    """EventSink that accumulates machine metrics during a run."""

    instr_runs = True

    def __init__(self, program: Program, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.layout = CodeLayout(program)
        self.icache = DirectMappedCache(self.config.icache_bytes, self.config.line_bytes)
        self.dcache = DirectMappedCache(self.config.dcache_bytes, self.config.line_bytes)
        self.predictor = TwoBitPredictor(self.config.predictor_entries)
        self.retired = 0
        self.calls = 0
        self.spills = 0
        self.depth = 0
        self._save_counts: Dict[str, int] = {}
        self._proc_regs: Dict[str, int] = {}
        self._spill_rates: Dict[str, float] = {}
        for proc in program.all_procs():
            regs = len(proc.reg_names())
            self._proc_regs[proc.name] = regs
            self._save_counts[proc.name] = min(regs, self.config.max_save_regs)
            excess = max(0, regs - self.config.reg_file)
            self._spill_rates[proc.name] = min(
                self.config.max_spill_rate, excess * self.config.spill_rate_per_reg
            )
        self._spill_acc = 0.0
        self._last_pc = 0
        # Per-run facts, computed on a run's first delivery (see _shape),
        # and the runs of one instruction that on_instr charges.
        self._shapes: Dict[Run, tuple] = {}
        self._singles: Dict[Tuple[str, str, int], Run] = {}
        self._frame_slots: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------

    def on_instr(self, proc, label, index, instr) -> None:
        key = (proc.name, label, index)
        run = self._singles.get(key)
        if run is None:
            run = self._singles[key] = Run(proc, label, index, 1)
        self.on_run(run, ())

    def on_run(self, run, addrs, taken=None) -> None:
        shape = self._shapes.get(run)
        if shape is None:
            shape = self._shapes[run] = self._shape(run)
        slots, last_pc, rate, mem_pos = shape
        fetched = run.count
        self._last_pc = last_pc
        spilled = None
        if rate:
            self._spill_acc, spilled = _accrue(self._spill_acc, rate, fetched)
        if spilled:
            # Each spill is a store or reload near the top of the frame,
            # and re-fetches the instruction just fetched.  It comes
            # before its own instruction's memory access.
            self.spills += len(spilled)
            fetched += len(spilled)
            spill_addr = SIM_STACK_BASE - self.depth * FRAME_BYTES - 8
            merged = []
            j = 0
            for pos in spilled:
                while j < len(addrs) and mem_pos[j] < pos:
                    merged.append(addrs[j] * WORD_BYTES)
                    j += 1
                merged.append(spill_addr)
            merged.extend(a * WORD_BYTES for a in addrs[j:])
            self.dcache.access_all(merged)
        elif addrs:
            self.dcache.access_all(addrs, WORD_BYTES)
        self.retired += fetched
        self.icache.touch_lines(slots, fetched)
        if taken is not None:
            self.predictor.predict_and_update(last_pc, taken)
        elif run.jump:
            self.predictor.force_correct()

    def _shape(self, run) -> tuple:
        """What charging ``run`` needs that does not change between its
        executions: its I-cache line slots, its last pc, its procedure's
        spill rate and the positions of its loads and stores (for
        ordering spills against them).  Spill accrual itself is not
        memoized: the float accumulator practically never enters a run
        with the same value twice."""
        name = run.proc.name
        lines, last_pc = self.layout.run_lines(
            name, run.label, run.start, run.count, self.config.line_bytes
        )
        rate = self._spill_rates.get(name, 0.0)
        mem_pos: Tuple[int, ...] = ()
        if rate:
            instrs = run.proc.blocks[run.label].instrs[run.start : run.start + run.count]
            mem_pos = tuple(
                i for i, instr in enumerate(instrs) if instr.__class__ in (Load, Store)
            )
        return self.icache.line_slots(lines), last_pc, rate, mem_pos

    def on_branch(self, proc, label, index, kind, taken, target_label) -> None:
        if kind == "cond":
            self.predictor.predict_and_update(self._last_pc, taken)
        else:  # unconditional jump: direction known
            self.predictor.force_correct()

    def on_call(self, caller, callee_name, kind, n_args) -> None:
        self.calls += 1
        if kind == "indirect":
            self.predictor.force_mispredict()
        else:
            self.predictor.force_correct()

        # Caller-save spills and excess outgoing arguments hit the stack.
        saves = self._save_counts.get(caller.name, self.config.max_save_regs)
        mem_args = max(0, n_args - self.config.reg_args)
        self._frame_traffic(saves + mem_args, store=True)

        if kind == "builtin":
            # The library body executes off-image: count its retired
            # instructions and its (always mispredicted) return.
            self.retired += self.config.builtin_instrs
            self.predictor.force_mispredict()
            self._frame_traffic(saves + mem_args, store=False)
        else:
            self.depth += 1

    def on_return(self, callee_name, caller) -> None:
        self.depth = max(0, self.depth - 1)
        # "the PA8000 always mispredicts procedure return branches"
        self.predictor.force_mispredict()
        saves = self._save_counts.get(caller.name, self.config.max_save_regs)
        self._frame_traffic(saves, store=False)

    def on_mem(self, addr, is_store) -> None:
        self.dcache.access(addr * WORD_BYTES)

    def _frame_traffic(self, words: int, store: bool) -> None:
        """Save/restore traffic at the current simulated frame: one
        instruction per word, fetched at the call site (``_last_pc``,
        fetched just before, so always a hit), storing to or loading
        from descending words below the frame base."""
        if words <= 0:
            return
        self.retired += words
        self.icache.accesses += words
        key = (self.depth, words)
        slots = self._frame_slots.get(key)
        if slots is None:
            base = SIM_STACK_BASE - self.depth * FRAME_BYTES
            line = self.dcache.line_bytes
            last = base - (words - 1) * WORD_BYTES
            lines = range(base // line, last // line - 1, -1)
            slots = self._frame_slots[key] = self.dcache.line_slots(lines)
        self.dcache.touch_lines(slots, words)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def metrics(self, ir_steps: int = 0) -> MachineMetrics:
        config = self.config
        cycles = (
            self.retired / config.issue_width
            + self.icache.misses * config.icache_miss_penalty
            + self.dcache.misses * config.dcache_miss_penalty
            + self.predictor.mispredictions * config.mispredict_penalty
        )
        return MachineMetrics(
            cycles=cycles,
            instructions=self.retired,
            icache_accesses=self.icache.accesses,
            icache_misses=self.icache.misses,
            dcache_accesses=self.dcache.accesses,
            dcache_misses=self.dcache.misses,
            branches=self.predictor.predictions,
            branch_mispredicts=self.predictor.mispredictions,
            code_bytes=self.layout.code_bytes,
            ir_steps=ir_steps,
            calls=self.calls,
            spills=self.spills,
        )


def simulate(
    program: Program,
    inputs: Sequence[Union[int, float]] = (),
    entry: str = "main",
    config: Optional[MachineConfig] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[MachineMetrics, Result]:
    """Run ``program`` on the machine model; returns (metrics, result)."""
    model = PA8000Model(program, config)
    interp = Interpreter(
        program, inputs, sink=model, max_steps=max_steps, engine=engine
    )
    result = interp.run(entry)
    return model.metrics(result.steps), result
