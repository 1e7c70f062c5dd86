"""The three workloads, their output checks, and the measurement loop.

Every workload builds with ``HLOConfig(budget_percent=400)`` and runs in
this one process, with no worker pool:

- ``compile-suite``: the ten suite programs at ``base``, ``c``, ``p``
  and ``cp``, one fresh ``Toolchain`` per program (so ``p`` and ``cp``
  share one training run, as in ``build_all_scopes``).  The timed pass
  only builds.
- ``execute-suite``: set-up builds every program at ``cp``; the timed
  pass runs each ``cp`` binary on its ``ref`` input: one cold
  ``simulate``, then sink-free runs cold and warm under ``fast`` and
  under ``codegen``.  The ``base`` builds, for the speedup, come once
  after the passes.
- ``compile-scale``: one wide generated program (40 modules x 4
  functions, ``extern_window=8``), built at ``cp`` with
  ``strategy="global"`` and with ``strategy="demand"``.

A *cold* run is the first run of a program object that nothing has
executed yet, so each use gets its own copy (``cold_copy``); a *warm*
run is a second run of the same object.

The seed fixes the order in which a pass visits programs and builds.
The programs themselves are fixed, so every deterministic counter must
read the same under any seed; a drift between passes, or between the
traced and untraced passes, raises ``BenchmarkError``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import HLOConfig
from repro.frontend.driver import compile_program
from repro.interp.interpreter import DEFAULT_ENGINE
from repro.ir.program import Program
from repro.linker.isom import from_isom_text, to_isom_text
from repro.linker.toolchain import SCOPES, Toolchain
from repro.workloads.generator import generate_sources
from repro.workloads.suite import all_workloads

# ``simulate`` and ``run_program`` are called through their modules, so
# that the traced pass's wrappers see the harness's own calls too.
from repro.interp import interpreter
from repro.machine import pa8000

from . import layers
from .clock import CLOCK

CONFIG = HLOConfig(budget_percent=400)
# An untraced run sets up at least SETUP_REPEATS times, and a cheap
# set-up more often, until SETUP_MIN_S have gone or SETUP_MAX_REPEATS
# set-ups are done; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 9
MIN_PASSES = 2  # so the cross-pass checks always have something to compare

# compile-scale's program: generator seed 5, the one among seeds 1-8
# whose program runs longest (about 150k cycles), so that its execution
# metrics are not a few milliseconds of timer noise.  A program per
# benchmark seed would make cycles swing 5.6k-150k between seeds (see
# NOTES.md).
SCALE_PROGRAM_SEED = 5
SCALE_MODULES = 40
SCALE_FUNCS_PER_MODULE = 4
SCALE_EXTERN_WINDOW = 8

Behaviour = Tuple[int, Tuple]


class BenchmarkError(Exception):
    """The benchmark itself is broken: a deterministic counter drifted."""


class Ledger:
    """Operations attempted and failed (builds, runs and simulates)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append("{}: {}".format(what, problem))


def _timed(fn, *args, **kwargs):
    """(result or None, wall seconds, exception text or None).

    The wall is taken on ``CLOCK``, so it leaves out the host-speed
    probes; the caller scales it with its region's factor.
    """
    started = CLOCK.now()
    try:
        result, problem = fn(*args, **kwargs), None
    except Exception as exc:  # a failing operation is counted, not raised
        result, problem = None, "{}: {}".format(type(exc).__name__, exc)
    return result, CLOCK.now() - started, problem


def cold_copy(program: Program) -> Program:
    """A fresh ``Program`` no engine has run: each module through isom text.

    ``link_modules`` would also check the copy, but it rejects HLO
    output: HLO leaves the externs of procedures it deleted behind
    (``@table_add`` in compress, for one), so the link raises
    ``LinkError``.  See NOTES.md.
    """
    return Program([from_isom_text(to_isom_text(mod)) for mod in program.modules.values()])


def isom_sha(program: Program) -> str:
    digest = hashlib.sha256()
    for mod in program.modules.values():
        digest.update(to_isom_text(mod).encode())
    return digest.hexdigest()


def reference_behaviour(sources, inputs) -> Behaviour:
    """Exit code and printed values of the O0 build under ``reference``."""
    program = compile_program(list(sources))
    return interpreter.run_program(program, inputs, engine="reference").behavior()


def mismatch(result, expected: Behaviour) -> Optional[str]:
    got = result.behavior()
    if got != expected:
        return "output {!r} != reference {!r}".format(got, expected)
    return None


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@contextmanager
def settled():
    """Collect garbage, then keep everything alive so far out of the
    collector's sight while the block runs.

    Without this, a full collection landing in a timed region scans
    the objects the benchmark itself holds (the kept builds, for one),
    which made a 0.05 s simulate read 0.2 s now and then.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def tracing(recorder):
    """Wrap the layers while ``recorder`` records; a no-op when it does not."""
    return layers.install(recorder) if recorder.enabled else nullcontext()


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------


@dataclass
class Built:
    label: str
    result: object  # BuildResult, or None when the build failed
    wall: float
    problem: Optional[str]


def build(toolchain: Toolchain, scope: str, label: str,
          recorder=layers.NULL_RECORDER) -> Built:
    """One timed build; the caller records it on the ledger."""
    span = recorder.begin("build")
    result, wall, problem = _timed(toolchain.build, scope)
    recorder.end(span)
    if problem is None and result.degraded:
        problem = "degraded build: {}".format(
            result.diagnostics.warnings or result.report.pass_failures
        )
    return Built(label, result if problem is None else None, wall, problem)


def build_recorded(toolchain: Toolchain, scope: str, label: str, ledger: Ledger) -> Built:
    built = build(toolchain, scope, label)
    ledger.record("build " + label, built.problem)
    return built


def build_counters(built: Built) -> Dict[str, object]:
    result = built.result
    if result is None:
        return {built.label: None}
    report = result.report
    return {
        built.label + ".sites": report.sites_considered,
        built.label + ".transforms": report.transform_count,
        built.label + ".cost": report.final_cost,
        built.label + ".instrs": result.program.size(),
        built.label + ".train_steps": result.stats.train_steps,
        built.label + ".annotated": result.stats.annotated_blocks,
        built.label + ".regions": report.regions_formed,
    }


# ----------------------------------------------------------------------
# Executing
# ----------------------------------------------------------------------


@dataclass
class Binary:
    name: str
    program: Program
    inputs: Tuple
    expected: Behaviour


@dataclass
class Round:
    """One cold simulate plus cold and warm runs of every binary."""

    wall: float = 0.0
    simulate_s: float = 0.0
    cold_s: Dict[str, float] = field(default_factory=dict)
    warm_s: Dict[str, float] = field(default_factory=dict)
    steps: Dict[str, int] = field(default_factory=dict)
    cycles: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, object] = field(default_factory=dict)

    def scale(self, factor: float) -> None:
        """Bring the round's times to the reference host speed."""
        self.wall *= factor
        self.simulate_s *= factor
        for bucket in (self.cold_s, self.warm_s):
            for key in bucket:
                bucket[key] *= factor


def simulate_checked(program: Program, binary: Binary, ledger: Ledger):
    """(MachineMetrics or None, wall) of one checked simulate of ``program``."""
    out, wall, problem = _timed(pa8000.simulate, program, binary.inputs)
    if problem is None:
        problem = mismatch(out[1], binary.expected)
    ledger.record("simulate " + binary.name, problem)
    return (out[0] if problem is None else None), wall


def run_checked(program: Program, binary: Binary, engine: str, label: str,
                ledger: Ledger):
    """(Result or None, wall) of one checked sink-free run of ``program``."""
    result, wall, problem = _timed(interpreter.run_program, program, binary.inputs,
                                   engine=engine)
    if problem is None:
        problem = mismatch(result, binary.expected)
    ledger.record("run {} {} {}".format(engine, label, binary.name), problem)
    return (result if problem is None else None), wall


def execute_round(binaries: Sequence[Binary], engines: Sequence[str], ledger: Ledger,
                  recorder=layers.NULL_RECORDER) -> Round:
    copies = [
        {use: cold_copy(b.program) for use in ("simulate",) + tuple(engines)}
        for b in binaries
    ]
    out = Round(
        cold_s=dict.fromkeys(engines, 0.0),
        warm_s=dict.fromkeys(engines, 0.0),
        steps=dict.fromkeys(engines, 0),
    )
    with settled(), tracing(recorder):
        mark, started = CLOCK.mark(), CLOCK.now()
        for binary, copy in zip(binaries, copies):
            metrics, wall = simulate_checked(copy["simulate"], binary, ledger)
            out.simulate_s += wall
            if metrics is not None:
                out.cycles[binary.name] = metrics.cycles
                for key, value in metrics.as_dict().items():
                    out.counters["{}.machine.{}".format(binary.name, key)] = value
            for engine in engines:
                for label, bucket in (("cold", out.cold_s), ("warm", out.warm_s)):
                    result, wall = run_checked(copy[engine], binary, engine, label, ledger)
                    bucket[engine] += wall
                    if result is not None:
                        out.steps[engine] += result.steps
                        out.counters["{}.{}.{}.steps".format(binary.name, engine, label)] = (
                            result.steps
                        )
        out.wall = CLOCK.now() - started
    out.scale(CLOCK.factor(mark))
    return out


def cycles_of(binaries: Sequence[Binary], ledger: Ledger) -> Dict[str, float]:
    """Cycles of each binary, from one checked simulate."""
    out = {}
    for binary in binaries:
        metrics, _ = simulate_checked(binary.program, binary, ledger)
        if metrics is not None:
            out[binary.name] = metrics.cycles
    return out


def speedup(base_cycles: Dict[str, float], cycles: Dict[str, float]) -> float:
    """Geomean of base/cp cycles over the binaries both sides have."""
    names = [name for name in cycles if name in base_cycles]
    if not names:
        return float("nan")
    return geomean([base_cycles[name] / cycles[name] for name in names])


def execution_metrics(rounds: Sequence[Round]) -> Dict[str, float]:
    """The end-to-end execution metrics of some rounds (medians)."""
    cycles = rounds[0].cycles
    return {
        "simulate_s": median([r.simulate_s for r in rounds]),
        "run_cold_s": median([r.cold_s[DEFAULT_ENGINE] for r in rounds]),
        "run_warm_s": median([r.warm_s[DEFAULT_ENGINE] for r in rounds]),
        "cycles_geomean": geomean(list(cycles.values())) if cycles else float("nan"),
    }


def execution_layer_metrics(rounds: Sequence[Round]) -> Dict[str, float]:
    """Interpreter and machine-sink walls the workload timed itself."""
    out: Dict[str, float] = {}
    for engine in ("fast", "codegen"):
        cold = [r.cold_s.get(engine, 0.0) for r in rounds] or [0.0]
        warm = [r.warm_s.get(engine, 0.0) for r in rounds] or [0.0]
        out["interp.{}.cold_s".format(engine)] = median(cold)
        out["interp.{}.warm_s".format(engine)] = median(warm)
        rates = [
            r.steps[engine] / (r.cold_s[engine] + r.warm_s[engine])
            for r in rounds if r.steps.get(engine)
        ]
        out["interp.{}.steps_per_s".format(engine)] = median(rates) if rates else 0.0
    sinks = [r.simulate_s - r.cold_s[DEFAULT_ENGINE] for r in rounds if r.cold_s]
    out["machine.sink_s"] = median(sinks) if sinks else 0.0
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """What one timed pass measured."""

    wall: float
    metrics: Dict[str, float]
    counters: Dict[str, object]  # must repeat exactly in every pass
    rounds: List[Round] = field(default_factory=list)
    shas: Dict[str, str] = field(default_factory=dict)  # isom SHA-256 per build


class Workload:
    """Set-up, one timed pass, and the checks that follow the passes."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, ledger: Ledger):
        raise NotImplementedError

    def run_pass(self, state, ledger: Ledger, recorder) -> Pass:
        raise NotImplementedError

    def finish(self, state, ledger: Ledger) -> Tuple[Dict[str, float], Dict[str, object]]:
        """End-to-end metrics and counters measured once per run, after the passes."""
        return {}, {}


class _CompileWorkload(Workload):
    """Shared by the two build workloads: output checks and check rounds.

    After each pass, outside its timed region, the first pass's ``cp``
    builds run ``check_rounds`` execution rounds against the reference
    outputs; these give the workload's execution metrics, sampled
    across the run.  The first pass's other builds are executed once
    the passes are over (``finish``).  A later pass's build must match
    the first pass's by isom SHA-256: equal text is the same program.
    A different SHA counts the build as failed.
    """

    check_rounds = 3  # a program's run takes milliseconds, so take several

    def _binaries(self, state, builds: Dict[str, Built], scope: str) -> List[Binary]:
        """The successful builds of ``scope`` as binaries to execute."""
        raise NotImplementedError

    def _pass(self, state, ledger: Ledger, recorder, plan) -> Pass:
        """``plan`` yields (label, toolchain, scope) in build order."""
        builds: List[Built] = []
        with settled(), tracing(recorder):
            mark, started = CLOCK.mark(), CLOCK.now()
            for label, toolchain, scope in plan():
                builds.append(build(toolchain, scope, label, recorder))
            wall = CLOCK.now() - started
        factor = CLOCK.factor(mark)
        wall *= factor
        for built in builds:
            built.wall *= factor
        counters: Dict[str, object] = {}
        shas: Dict[str, str] = {}
        first = state.first_builds is None
        for built in builds:
            counters.update(build_counters(built))
            problem = built.problem
            if built.result is not None:
                sha = shas[built.label + ".isom"] = isom_sha(built.result.program)
                if first:
                    state.shas[built.label] = sha
                elif state.shas.get(built.label) != sha:
                    problem = "isom SHA-256 differs from the first pass"
            ledger.record("build " + built.label, problem)
        if first:
            state.first_builds = {b.label: b for b in builds}
        # Always the first pass's binaries: a later pass's build is held
        # to them by its SHA, and a drift here must be a failed build,
        # not a counter that differs between check rounds.
        binaries = self._binaries(state, state.first_builds, "cp")
        state.rounds.extend(
            execute_round(binaries, (DEFAULT_ENGINE,), ledger) for _ in range(self.check_rounds)
        )
        metrics = {"build_s": sum(b.wall for b in builds), "wall_s": wall}
        return Pass(wall, metrics, counters, shas=shas)

    def _finish(self, state, base_cycles: Dict[str, float]):
        """Execution metrics of the check rounds, and the speedup over base."""
        rounds = state.rounds
        for later in rounds[1:]:
            same_counters(rounds[0].counters, later.counters, "check rounds")
        metrics = execution_metrics(rounds)
        metrics["speedup_geomean"] = speedup(base_cycles, rounds[0].cycles)
        counters = dict(rounds[0].counters)
        counters.update(("{}.base.cycles".format(k), v) for k, v in base_cycles.items())
        return metrics, counters


@dataclass
class _CompileState:
    inputs: Dict[str, Tuple]
    expected: Dict[str, Behaviour]
    sources: Optional[list] = None
    first_builds: Optional[Dict[str, Built]] = None
    shas: Dict[str, str] = field(default_factory=dict)
    rounds: List[Round] = field(default_factory=list)


class CompileSuite(_CompileWorkload):
    """The paper's compile column on ten small programs with hot paths.

    Outputs are checked on each program's training input, which the
    builds already run: the ``ref`` inputs would cost several times
    more and belong to ``execute-suite``.
    """

    name = "compile-suite"

    def __init__(self, seed: int, programs: Optional[Sequence[str]] = None):
        super().__init__(seed)
        self.programs = [
            w for w in all_workloads() if programs is None or w.name in programs
        ]
        self.rng.shuffle(self.programs)

    def setup(self, ledger: Ledger) -> _CompileState:
        state = _CompileState({}, {})
        for w in self.programs:
            state.inputs[w.name] = tuple(w.train_inputs[0])
            state.expected[w.name] = reference_behaviour(w.sources, w.train_inputs[0])
        return state

    def run_pass(self, state, ledger, recorder) -> Pass:
        def plan():
            for w in self.programs:
                toolchain = Toolchain(list(w.sources), w.train_inputs, config=CONFIG)
                for scope in SCOPES:
                    yield "{}@{}".format(w.name, scope), toolchain, scope

        return self._pass(state, ledger, recorder, plan)

    def _binaries(self, state, builds, scope):
        out = []
        for w in self.programs:
            built = builds.get("{}@{}".format(w.name, scope))
            if built is not None and built.result is not None:
                out.append(Binary(w.name, built.result.program,
                                  state.inputs[w.name], state.expected[w.name]))
        return out

    def finish(self, state, ledger):
        for scope in ("c", "p"):
            for binary in self._binaries(state, state.first_builds, scope):
                run_checked(binary.program, binary, DEFAULT_ENGINE, "cold", ledger)
        base = self._binaries(state, state.first_builds, "base")
        return self._finish(state, cycles_of(base, ledger))


class CompileScale(_CompileWorkload):
    """One wide, mostly cold program: where whole-program HLO cost grows."""

    name = "compile-scale"

    def __init__(self, seed: int, modules: int = SCALE_MODULES):
        super().__init__(seed)
        self.modules = modules
        self.strategies = ["global", "demand"]
        self.rng.shuffle(self.strategies)

    def setup(self, ledger: Ledger) -> _CompileState:
        sources = generate_sources(
            SCALE_PROGRAM_SEED, n_modules=self.modules,
            funcs_per_module=SCALE_FUNCS_PER_MODULE,
            extern_window=SCALE_EXTERN_WINDOW,
        )
        return _CompileState(
            {"scale": ()}, {"scale": reference_behaviour(sources, ())}, sources=sources
        )

    def run_pass(self, state, ledger, recorder) -> Pass:
        def plan():
            for strategy in self.strategies:
                config = HLOConfig(budget_percent=CONFIG.budget_percent, strategy=strategy)
                yield "scale@cp-" + strategy, Toolchain(state.sources, [()], config=config), "cp"

        return self._pass(state, ledger, recorder, plan)

    def _binaries(self, state, builds, scope):
        out = []
        for strategy in sorted(self.strategies):
            built = builds.get("scale@{}-{}".format(scope, strategy))
            if built is not None and built.result is not None:
                out.append(Binary(strategy, built.result.program, (), state.expected["scale"]))
        return out

    def finish(self, state, ledger):
        base_cycles: Dict[str, float] = {}
        built = build_recorded(
            Toolchain(state.sources, [()], config=CONFIG), "base", "scale@base", ledger
        )
        if built.result is not None:
            base = Binary("base", built.result.program, (), state.expected["scale"])
            # One base binary stands against both strategies' cp builds.
            for cycles in cycles_of([base], ledger).values():
                base_cycles = dict.fromkeys(self.strategies, cycles)
        return self._finish(state, base_cycles)


@dataclass
class _ExecuteState:
    binaries: List[Binary]
    cycles: Dict[str, float] = field(default_factory=dict)


class ExecuteSuite(Workload):
    """The run side: interpreter and machine model on optimized code."""

    name = "execute-suite"
    engines = ("fast", "codegen")

    def __init__(self, seed: int, programs: Optional[Sequence[str]] = None):
        super().__init__(seed)
        self.programs = [
            w for w in all_workloads() if programs is None or w.name in programs
        ]
        self.rng.shuffle(self.programs)
        self.setup_build_s: List[float] = []

    def setup(self, ledger: Ledger) -> _ExecuteState:
        binaries, build_s, mark = [], 0.0, CLOCK.mark()
        for w in self.programs:
            expected = reference_behaviour(w.sources, w.ref_input)
            toolchain = Toolchain(list(w.sources), w.train_inputs, config=CONFIG)
            built = build_recorded(toolchain, "cp", w.name + "@cp", ledger)
            build_s += built.wall
            if built.result is not None:
                binaries.append(
                    Binary(w.name, built.result.program, tuple(w.ref_input), expected)
                )
        self.setup_build_s.append(build_s * CLOCK.factor(mark))
        return _ExecuteState(binaries)

    def run_pass(self, state, ledger, recorder) -> Pass:
        round_ = execute_round(state.binaries, self.engines, ledger, recorder)
        state.cycles = round_.cycles
        metrics = execution_metrics([round_])
        metrics["wall_s"] = round_.wall
        return Pass(round_.wall, metrics, dict(round_.counters), [round_])

    def finish(self, state, ledger):
        """Build and simulate the base binaries, for the speedup, once per run."""
        base = []
        programs = {w.name: w for w in self.programs}
        for binary in state.binaries:
            w = programs[binary.name]
            built = build_recorded(Toolchain(list(w.sources), config=CONFIG), "base",
                                   w.name + "@base", ledger)
            if built.result is not None:
                base.append(Binary(w.name, built.result.program, binary.inputs,
                                   binary.expected))
        base_cycles = cycles_of(base, ledger)
        metrics = {
            "build_s": median(self.setup_build_s),
            "speedup_geomean": speedup(base_cycles, state.cycles),
        }
        return metrics, {"{}.base.cycles".format(k): v for k, v in base_cycles.items()}


WORKLOADS = {cls.name: cls for cls in (CompileSuite, ExecuteSuite, CompileScale)}


# ----------------------------------------------------------------------
# The measurement loop
# ----------------------------------------------------------------------


def same_counters(reference: Dict[str, object], counters: Dict[str, object], what: str) -> None:
    if counters != reference:
        keys = sorted(
            k for k in set(reference) | set(counters)
            if reference.get(k, "<absent>") != counters.get(k, "<absent>")
        )
        raise BenchmarkError(
            "deterministic counters drifted between {}: {}".format(what, ", ".join(keys[:8]))
        )


def counters_digest(counters: Dict[str, object]) -> str:
    text = "\n".join("{}={!r}".format(k, counters[k]) for k in sorted(counters))
    return hashlib.sha256(text.encode()).hexdigest()


def src_lines(src_root) -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted(src_root.rglob("*.py"))
    )


@dataclass
class Measurement:
    ledger: Ledger
    metrics: Dict[str, float]
    counters: Dict[str, object]
    layer_counters: Dict[str, object] = field(default_factory=dict)
    host_speed: float = 1.0  # the run's mean speed relative to clock.REFERENCE_S


def _is_layer_counter(name: str) -> bool:
    """Per-layer metrics that count work, as against walls; they must repeat exactly."""
    return not name.endswith(("_s", ".s"))


def _another_setup(walls: List[float], trace: bool) -> bool:
    if not walls:
        return True
    if trace:  # setup_s is not reported; one set-up will do
        return False
    if len(walls) < SETUP_REPEATS:
        return True
    return sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX_REPEATS


def measure(workload: Workload, seconds: float, trace: bool, src_root=None) -> Measurement:
    """Set up, run timed passes for ``seconds`` (at least ``MIN_PASSES``
    untraced ones; when ``trace``, a traced pass between each two
    untraced ones), then run the workload's checks.
    """
    ledger = Ledger()
    # Untraced runs report their times at the reference host speed
    # (clock.py); traced runs report plain seconds.
    with nullcontext() if trace else CLOCK.sampling():
        first_probe = CLOCK.mark()
        setup_walls: List[float] = []
        while _another_setup(setup_walls, trace):
            state = None  # let the previous set-up's objects go first
            with settled():
                mark, started = CLOCK.mark(), CLOCK.now()
                state = workload.setup(ledger)
                setup_walls.append((CLOCK.now() - started) * CLOCK.factor(mark))

        untraced: List[Pass] = []
        traced: List[Tuple[Pass, Dict[str, float]]] = []
        started = time.perf_counter()
        # Traced passes sit between untraced ones (U T U ...), so the overhead
        # ratio does not take the drift of the host's speed for tracing cost.
        while True:
            untraced.append(workload.run_pass(state, ledger, layers.NULL_RECORDER))
            if len(untraced) >= MIN_PASSES and time.perf_counter() - started >= seconds:
                break
            if trace:
                recorder = layers.Recorder()
                done = workload.run_pass(state, ledger, recorder)
                traced.append((done, layers.layer_metrics(recorder.spans)))
                del recorder
        finished, final_counters = workload.finish(state, ledger)

    for index, later in enumerate(untraced[1:], 2):
        same_counters(untraced[0].counters, later.counters, "pass 1 and pass {}".format(index))
    for done, _ in traced:
        same_counters(untraced[0].counters, done.counters, "the untraced and the traced pass")
    counters = {**untraced[0].counters, **untraced[0].shas, **final_counters}

    if not trace:
        metrics = {
            key: median([p.metrics[key] for p in untraced]) for key in untraced[0].metrics
        }
        metrics.update(finished)
        metrics["setup_s"] = median(setup_walls)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Measurement(ledger, metrics, counters, host_speed=CLOCK.factor(first_probe))

    per_pass = []
    for done, layer in traced:
        layer.update(execution_layer_metrics(done.rounds))
        per_pass.append(layer)
    layer_counters = {k: v for k, v in per_pass[0].items() if _is_layer_counter(k)}
    for later in per_pass[1:]:
        same_counters(
            layer_counters,
            {k: v for k, v in later.items() if _is_layer_counter(k)},
            "traced passes",
        )
    metrics = {key: median([p[key] for p in per_pass]) for key in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        median([done.wall for done, _ in traced]) / median([p.wall for p in untraced])
    )
    metrics["fail_ratio"] = ledger.failed / max(1, ledger.attempted)
    if src_root is not None:
        metrics["repo.src_lines"] = src_lines(src_root)
    return Measurement(ledger, metrics, counters, layer_counters)
