"""Per-layer tracing from outside the program.

The traced pass wraps the public function of each layer (the list in
``install``) and records one span per call: name, start, end, the
span that was open when it began (its parent), and a few counts taken
from the call's arguments or result.  Nothing inside ``src/`` is
edited; where a module imported a wrapped function by name, that name
is patched in the importing module too, and everything is restored
when the traced pass ends.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer metrics when the pass is over.

A layer's time is its *self* time: its spans' durations minus the part
covered by their child spans, so the layer times of one build add up
to the build wall less the toolchain's own glue.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

OPT_PASSES = ("constprop", "simplifycfg", "copyprop", "peephole", "cse", "licm", "dce")

# Span fields, kept as lists so a traced build of the largest workload
# (tens of thousands of pass calls) stays small and cheap to record.
NAME, START, END, PARENT, ATTRS = range(5)


class Recorder:
    """Spans of one traced pass, in begin order."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self._builds_open = 0

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        index = len(self.spans) - 1
        self._open.append(index)
        if name == "build":
            self._builds_open += 1
        return index

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        if attrs:
            span[ATTRS].update(attrs)
        self._open.pop()
        if span[NAME] == "build":
            self._builds_open -= 1

    @property
    def in_build(self) -> bool:
        return self._builds_open > 0


class NullRecorder:
    """The untraced twin: records nothing."""

    enabled = False
    in_build = False

    def begin(self, name: str, **attrs) -> int:
        return -1

    def end(self, index: int, **attrs) -> None:
        pass


NULL_RECORDER = NullRecorder()


def _wrap(recorder: Recorder, name: str, fn: Callable,
          after: Optional[Callable] = None, before: Optional[Callable] = None):
    """``fn`` inside a span; ``before``/``after`` derive counts outside it."""

    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before is not None else {}
        span = recorder.begin(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            recorder.spans[span][ATTRS].update(after(args, kwargs, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _patch_everywhere(original: Callable, wrapper: Callable, undo: list) -> None:
    """Replace ``original`` under every name a ``repro`` module binds it to."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def _run_hlo_wrapper(recorder: Recorder, fn: Callable):
    """``run_hlo`` in a span, with the stage spans it emits kept.

    The toolchain passes the null observer; the wrapper hands ``run_hlo``
    a ``BuildObserver(tracer=Tracer())`` instead and reads back the
    ``input-stage`` / ``clone-pass-N`` / ``inline-pass-N`` /
    ``output-stage`` spans as inclusive stage durations.
    """
    from repro.obs import NULL_OBSERVER, BuildObserver, Tracer

    def wrapper(program, config=None, *args, **kwargs):
        observer = kwargs.get("observer")
        if observer is None or observer is NULL_OBSERVER:
            observer = kwargs["observer"] = BuildObserver(tracer=Tracer())
        instrs_in = program.size()
        span = recorder.begin("run_hlo")
        try:
            report = fn(program, config, *args, **kwargs)
        finally:
            recorder.end(span)
        stages = dict.fromkeys(("input", "clone", "inline", "output"), 0.0)
        for event in observer.tracer.events():
            stage = event["name"].split("-")[0]
            if event.get("ph") == "X" and stage in stages:
                stages[stage] += event["dur"] / 1e6
        recorder.spans[span][ATTRS].update(
            {"stage_" + name: wall for name, wall in stages.items()},
            instrs_in=instrs_in,
            instrs_out=program.size(),
            sites=report.sites_considered,
            transforms=report.transform_count,
            units=report.final_cost,
            regions=report.regions_formed,
            hits=report.analysis_hits,
            misses=report.analysis_misses,
            strategy_s=report.strategy_wall_s,
        )
        return report

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def install(recorder: Recorder):
    """Wrap every traced layer function for the duration of the block."""
    import repro.core.hlo as hlo
    import repro.frontend.driver as driver
    import repro.interp.interpreter as interpreter
    import repro.linker.isom as isom
    import repro.linker.linker as linker
    import repro.machine.pa8000 as pa8000
    import repro.opt.deadcalls as deadcalls
    import repro.profile.annotate as annotate
    import repro.profile.instrument as instrument
    import repro.resilience.snapshot as snapshot
    from repro.opt.pass_manager import default_pipeline

    def program_counts(args, kwargs, program):
        return {"modules": len(program.modules), "instrs": program.size()}

    def run_counts(args, kwargs, result):
        return {"steps": result.steps}

    def run_before(args, kwargs):
        return {"train": recorder.in_build}

    def simulate_counts(args, kwargs, result):
        metrics, run = result
        return {
            "steps": run.steps,
            "instructions": metrics.instructions,
            "icache": metrics.icache_accesses,
            "dcache": metrics.dcache_accesses,
            "branches": metrics.branches,
            "calls": metrics.calls,
        }

    functions = [
        (driver.compile_program,
         _wrap(recorder, "frontend", driver.compile_program, after=program_counts)),
        (isom.to_isom_text,
         _wrap(recorder, "linker", isom.to_isom_text,
               after=lambda a, k, text: {"bytes": len(text)})),
        (isom.from_isom_text, _wrap(recorder, "linker", isom.from_isom_text)),
        (linker.link_modules, _wrap(recorder, "linker", linker.link_modules)),
        (instrument.instrument_program,
         _wrap(recorder, "profile.instrument", instrument.instrument_program)),
        (interpreter.run_program,
         _wrap(recorder, "interp.run", interpreter.run_program,
               after=run_counts, before=run_before)),
        (annotate.annotate_program,
         _wrap(recorder, "profile.annotate", annotate.annotate_program,
               after=lambda a, k, blocks: {"blocks": blocks})),
        (hlo.run_hlo, _run_hlo_wrapper(recorder, hlo.run_hlo)),
        (deadcalls.eliminate_dead_calls,
         _wrap(recorder, "opt.deadcalls", deadcalls.eliminate_dead_calls)),
        (pa8000.simulate,
         _wrap(recorder, "simulate", pa8000.simulate, after=simulate_counts)),
    ]
    for name, fn in default_pipeline():
        functions.append(
            (fn, _wrap(recorder, "opt." + name, fn,
                       after=lambda a, k, changed: {"changed": bool(changed)}))
        )

    undo: list = []
    try:
        for original, wrapper in functions:
            _patch_everywhere(original, wrapper, undo)
        for cls, name in ((snapshot.ProcedureSnapshot, "resilience.proc_snapshot"),
                          (snapshot.ProgramSnapshot, "resilience.program_snapshot")):
            init = cls.__init__
            cls.__init__ = _wrap(recorder, name, init)
            undo.append((cls, "__init__", init))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer walls and counts of one traced pass.

    Interpreter cold/warm walls and the machine sink's wall are not
    derived here: the workload measures those itself, around its own
    calls, in the traced pass as in the untraced one.
    """
    own = self_times(spans)
    out: Dict[str, float] = {
        "frontend.s": 0.0, "frontend.modules": 0, "frontend.instrs": 0,
        "linker.s": 0.0, "linker.isom_bytes": 0,
        "profile.instrument_s": 0.0, "profile.train_s": 0.0,
        "profile.train_steps": 0, "profile.annotate_s": 0.0,
        "profile.annotated_blocks": 0,
        "core.hlo_s": 0.0, "core.stage.input_s": 0.0, "core.stage.clone_s": 0.0,
        "core.stage.inline_s": 0.0, "core.stage.output_s": 0.0,
        "core.strategy_s": 0.0, "core.sites_considered": 0, "core.transforms": 0,
        "core.instrs_in": 0, "core.instrs_out": 0, "core.compile_units": 0.0,
        "core.regions_formed": 0,
        "opt.deadcalls.s": 0.0, "opt.deadcalls.calls": 0,
        "resilience.proc_snapshots": 0, "resilience.proc_snapshot_s": 0.0,
        "resilience.program_snapshots": 0, "resilience.program_snapshot_s": 0.0,
        "interp.steps": 0,
        "machine.instructions": 0,
        "machine.icache_accesses": 0, "machine.dcache_accesses": 0,
        "machine.branches": 0, "machine.calls": 0,
    }
    for name in OPT_PASSES:
        out["opt.{}.s".format(name)] = 0.0
        out["opt.{}.calls".format(name)] = 0
        out["opt.{}.changed".format(name)] = 0
    hits = misses = 0
    for span, self_s in zip(spans, own):
        name, attrs = span[NAME], span[ATTRS]
        if name == "frontend":
            out["frontend.s"] += self_s
            out["frontend.modules"] += attrs["modules"]
            out["frontend.instrs"] += attrs["instrs"]
        elif name == "linker":
            out["linker.s"] += self_s
            out["linker.isom_bytes"] += attrs.get("bytes", 0)
        elif name == "profile.instrument":
            out["profile.instrument_s"] += self_s
        elif name == "profile.annotate":
            out["profile.annotate_s"] += self_s
            out["profile.annotated_blocks"] += attrs["blocks"]
        elif name == "interp.run":
            out["interp.steps"] += attrs["steps"]
            if attrs["train"]:
                out["profile.train_s"] += self_s
                out["profile.train_steps"] += attrs["steps"]
        elif name == "run_hlo":
            out["core.hlo_s"] += self_s
            for stage in ("input", "clone", "inline", "output"):
                out["core.stage.{}_s".format(stage)] += attrs["stage_" + stage]
            out["core.strategy_s"] += attrs["strategy_s"]
            out["core.sites_considered"] += attrs["sites"]
            out["core.transforms"] += attrs["transforms"]
            out["core.instrs_in"] += attrs["instrs_in"]
            out["core.instrs_out"] += attrs["instrs_out"]
            out["core.compile_units"] += attrs["units"]
            out["core.regions_formed"] += attrs["regions"]
            hits += attrs["hits"]
            misses += attrs["misses"]
        elif name == "opt.deadcalls":
            out["opt.deadcalls.s"] += self_s
            out["opt.deadcalls.calls"] += 1
        elif name.startswith("opt."):
            out[name + ".s"] += self_s
            out[name + ".calls"] += 1
            out[name + ".changed"] += attrs["changed"]
        elif name == "resilience.proc_snapshot":
            out["resilience.proc_snapshots"] += 1
            out["resilience.proc_snapshot_s"] += self_s
        elif name == "resilience.program_snapshot":
            out["resilience.program_snapshots"] += 1
            out["resilience.program_snapshot_s"] += self_s
        elif name == "simulate":
            out["interp.steps"] += attrs["steps"]
            out["machine.instructions"] += attrs["instructions"]
            out["machine.icache_accesses"] += attrs["icache"]
            out["machine.dcache_accesses"] += attrs["dcache"]
            out["machine.branches"] += attrs["branches"]
            out["machine.calls"] += attrs["calls"]
    out["core.analysis_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
