"""Pass manager: composes procedure- and program-level optimizations.

The paper's claim rests on a strong downstream optimizer: "inlining at
the intermediate-code level ... a high-quality back end can exploit the
scheduling and register allocation opportunities presented by larger
subroutines."  Our pipeline is the classic scalar suite; HLO re-runs it
over every clone/inlined routine before recalibrating its budget.

Much of that re-running meets IR the pipeline has already converged
on.  Inside a :func:`fixpoint_scope` (every ``run_hlo`` and
``optimize_program`` call opens one), a call that converges records a
*fixpoint stamp*: the procedure's IR identity for that pipeline.  A
later call on a procedure that still holds the same instruction
objects returns ``False`` without running a pass.  Placed instructions
are never edited (:mod:`repro.ir.instructions`), so any rewrite,
inline, retarget or snapshot restore changes the identity and the
stamp no longer matches; no mutation site needs a hook.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..ir.procedure import Procedure
from ..ir.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.guard import PassGuard

# A procedure pass takes (program, proc) and returns True when it changed IR.
ProcPass = Callable[[Program, Procedure], bool]

MAX_ITERATIONS = 8

# Procedure -> (pass functions, IR identity) of its last converged
# call; ``None`` outside any fixpoint scope.
_STAMPS: ContextVar[Optional[Dict[Procedure, Tuple]]] = ContextVar(
    "fixpoint_stamps", default=None
)


class FixpointStampError(RuntimeError):
    """A checked build found a stamped procedure that was not at a
    fixed point: some pass changed it."""


@contextmanager
def fixpoint_scope() -> Iterator[None]:
    """Keep fixpoint stamps until the block exits.

    A nested scope shares the enclosing scope's stamps, so the input
    stage's stamps carry into the strategy and output stages of the
    same ``run_hlo`` call, and none outlives it.
    """
    if _STAMPS.get() is not None:
        yield
        return
    token = _STAMPS.set({})
    try:
        yield
    finally:
        _STAMPS.reset(token)


def _stamp(proc: Procedure, passes: Sequence[Tuple[str, ProcPass]]) -> Tuple:
    """The pipeline's pass functions and ``proc``'s IR identity.

    Instructions compare by ``is`` (``Instr`` defines no equality).
    """
    return (
        tuple(run for _, run in passes),
        (
            proc.entry,
            tuple(proc.params),
            proc.ret_type,
            frozenset(proc.attrs),
            tuple([(label, tuple(block.instrs)) for label, block in proc.blocks.items()]),
        ),
    )


def has_fixpoint_stamp(
    proc: Procedure, pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None
) -> bool:
    """Whether :func:`optimize_proc` would skip ``proc`` for ``pipeline``."""
    stamps = _STAMPS.get()
    if stamps is None:
        return False
    passes = list(pipeline) if pipeline is not None else default_pipeline()
    return stamps.get(proc) == _stamp(proc, passes)


def default_pipeline() -> List[Tuple[str, ProcPass]]:
    """The standard per-procedure pipeline, in order."""
    from .constprop import constant_propagation
    from .copyprop import copy_propagation
    from .cse import local_cse
    from .dce import dead_code_elimination
    from .licm import licm
    from .peephole import peephole
    from .simplifycfg import simplify_cfg

    return [
        ("constprop", constant_propagation),
        ("simplifycfg", simplify_cfg),
        ("copyprop", copy_propagation),
        ("peephole", peephole),
        ("cse", local_cse),
        ("licm", licm),
        ("dce", dead_code_elimination),
    ]


def optimize_proc(
    program: Program,
    proc: Procedure,
    pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None,
    max_iterations: int = MAX_ITERATIONS,
    guard: Optional["PassGuard"] = None,
    pass_number: int = -1,
    phase: str = "scalar",
) -> bool:
    """Run the pipeline over one procedure to a fixed point (bounded).

    With a :class:`~repro.resilience.PassGuard`, each pass application
    is isolated: an exception (or, in checked builds, a verifier
    failure) rolls the procedure back to its pre-pass state, records a
    structured diagnostic, and the remaining passes continue.  The
    iteration bound doubles as the per-pass step budget — a pass whose
    rollback/retry would otherwise loop forever converges to "no
    change" once the guard quarantines it.

    Inside a :func:`fixpoint_scope`, a procedure this pipeline already
    converged on is skipped.  A call converges when its last iteration
    ran every pass, no pass changed anything, and the guard recorded
    no failure and holds nothing in quarantine.  A checked build
    (``verify_each_pass``) still runs a stamped procedure through a
    guarded pipeline and raises :class:`FixpointStampError` if any
    pass changes it.
    """
    passes = list(pipeline) if pipeline is not None else default_pipeline()
    stamps = _STAMPS.get()
    stamped = None
    if stamps is not None:
        stamp = _stamp(proc, passes)
        if stamps.get(proc) == stamp:
            if guard is None or not guard.config.verify_each_pass:
                return False
            stamped = stamp
    changed_any = False
    converged = False
    for _ in range(max_iterations):
        failures = len(guard.failures) if guard is not None else 0
        changed = False
        for name, run in passes:
            if guard is not None:
                if guard.run_proc_pass(program, proc, name, run, pass_number, phase):
                    changed = True
            elif run(program, proc):
                changed = True
        if not changed:
            converged = guard is None or (
                len(guard.failures) == failures and not guard.quarantined
            )
            break
        changed_any = True
    if stamps is not None:
        stamp = _stamp(proc, passes)
        if stamped is not None and (changed_any or stamp != stamped):
            raise FixpointStampError(
                "@{} was stamped as converged, but the pipeline changed it".format(
                    proc.name
                )
            )
        if converged:
            stamps[proc] = stamp
        else:
            stamps.pop(proc, None)
    return changed_any


def optimize_program(
    program: Program,
    pipeline: Optional[Sequence[Tuple[str, ProcPass]]] = None,
    interprocedural: bool = True,
    guard: Optional["PassGuard"] = None,
    pass_number: int = -1,
    phase: str = "scalar",
) -> bool:
    """Optimize every procedure, then apply program-level cleanups.

    With ``interprocedural`` set, dead-call elimination runs between
    per-procedure rounds (this is the analysis that deletes the no-op
    curses calls in the paper's 072.sc before inlining even starts).
    """
    from .deadcalls import eliminate_dead_calls

    changed_any = False
    with fixpoint_scope():
        for _ in range(3):
            changed = False
            for proc in list(program.all_procs()):
                if optimize_proc(
                    program, proc, pipeline, guard=guard,
                    pass_number=pass_number, phase=phase,
                ):
                    changed = True
            if interprocedural:
                if guard is not None:
                    deleted = guard.run_program_stage(
                        program, "deadcalls",
                        lambda: eliminate_dead_calls(program),
                        pass_number, phase, default=False,
                    )
                    changed = bool(deleted) or changed
                elif eliminate_dead_calls(program):
                    changed = True
            if not changed:
                break
            changed_any = True
    return changed_any
