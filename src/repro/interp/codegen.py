"""Source-emitting execution engine (``engine="codegen"``).

Where the fast engine (:mod:`repro.interp.engine`) pre-decodes each
procedure into lists of bound closures, this engine goes one step
further down the classic compilation ladder: every procedure is emitted
as *specialized Python source* and compiled via ``compile()``/``exec``
into a real code object.

- registers become plain local variables (no register-file list, no
  slot indexing),
- fused straight-line segments become straight-line statements with ONE
  batched step-limit check (an emitted exact per-instruction replay
  covers the case where the limit falls inside the segment),
- block successors become a ``while`` + ``if/elif`` dispatch over
  integer block labels, with arms ordered by the training profile's
  ``block.profile_count`` so hot blocks are tested first,
- single-predecessor successors are *inlined into their predecessor* as
  superinstruction bodies (the emitted control transfer disappears
  entirely; the branch/jump still costs its step and fires its events),
- direct calls carry pre-bound call-site metadata; the per-run name
  resolution (and therefore fleet hot-swap semantics) is identical to
  the fast engine's ``link`` table.

Each emitted procedure is a *generator function*: call sites ``yield``
a request tuple to a trampoline driver that maintains an explicit frame
stack, so deeply recursive programs never touch the Python stack and
the 8000-frame limit matches the other engines exactly.  Returns travel
as a sentinel-tagged yield (cheaper than ``StopIteration``).

Plans are cached on ``Program._codegen_cache`` with the same
fingerprint/globals-signature invalidation as the fast engine's
``PlanCache`` (so ``Program.invalidate_plans()`` — and therefore fleet
hot-swap — covers both).  Observable behaviour is kept byte-identical
to the reference engine and asserted by :mod:`repro.interp.diff`,
including the fast engine's one documented divergence: when a run
*traps* mid-segment, ``Interpreter.steps`` may count the whole segment;
``StepLimitExceeded`` itself is exact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    ICall,
    Jump,
    Load,
    Mov,
    Probe,
    Ret,
    Store,
    UnOp,
)
from ..ir.ops import INT_MASK, INT_MAX, EvalError, eval_binop, eval_unop, wrap_int
from ..ir.procedure import ATTR_VARARGS, Procedure
from ..ir.values import FuncRef, GlobalRef, Imm, Reg
from .errors import ExecError, StepLimitExceeded
from .memory import CodePtr

# The codegen engine deliberately shares the fast engine's run-state,
# sentinels, and invalidation helpers: one _UNSET, one fingerprint
# function, one per-run state shape means the differential harness is
# comparing engines, not re-implementations of bookkeeping.
from .engine import (  # noqa: E402
    _MISS,
    _NO_VARARGS,
    _STACK_LIMIT,
    _UNSET,
    _ExecState,
    _fingerprint,
    _unset,
    sink_mode,
)
from .interpreter import Result, _Exit  # noqa: E402

_MASK = INT_MASK
_IMAX = INT_MAX
_TWO64 = 1 << 64

# Tag object for return requests yielded by emitted procedures.
_RETM = object()

# Inlining caps: Python's parser rejects very deep indentation (~100
# levels) and the compiler recurses per inlined block, so bound both
# the emitted indent depth and the length of an inline chain.
INLINE_INDENT_CAP = 40
INLINE_DEPTH_CAP = 48


# ----------------------------------------------------------------------
# Slow-path helpers referenced from emitted code
# ----------------------------------------------------------------------


def _binop_slow(op, x, y, ln, rn, pn, lb, ix):
    """Non-int/int operands: replicate the reference engine's evaluation
    order and error messages exactly (cf. engine._binop_slow)."""
    if x is _UNSET:
        _unset(ln, pn)
    if y is _UNSET:
        _unset(rn, pn)
    if isinstance(x, CodePtr) or isinstance(y, CodePtr):
        if op == "eq":
            return 1 if x == y else 0
        if op == "ne":
            return 0 if x == y else 1
        raise ExecError("arithmetic on code pointer", pn, lb, ix)
    try:
        return eval_binop(op, x, y)
    except (EvalError, TypeError) as ex:
        raise ExecError(str(ex), pn, lb, ix)


def _unop_slow(op, x, n, pn, lb, ix):
    if x is _UNSET:
        _unset(n, pn)
    try:
        return eval_unop(op, x)
    except (EvalError, TypeError) as ex:
        raise ExecError(str(ex), pn, lb, ix)


def _load_guard(mem, a, n, pn):
    if a is _UNSET:
        _unset(n, pn)
    return mem._load_slow(a)


def _store_guard(mem, a, v, an, vn, pn):
    if a is _UNSET:
        _unset(an, pn)
    if v is _UNSET:
        _unset(vn, pn)
    mem._store_slow(a, v)


def _alloca_slow(st, size, n, pn, lb, ix):
    if size is _UNSET:
        _unset(n, pn)
    if not isinstance(size, int) or size < 0:
        raise ExecError("bad alloca size {!r}".format(size), pn, lb, ix)
    top = st.stack_top - size
    st.stack_top = top
    return top


def _args_trap(args, names, pn):
    """An argument list contained _UNSET: report the first unset
    register argument with the reference engine's message."""
    for v, n in zip(args, names):
        if n is not None and v is _UNSET:
            _unset(n, pn)
    raise ExecError("internal: arg trap fell through")  # pragma: no cover


def _sl_raise(limit, pn, lb, ix):
    raise StepLimitExceeded("step limit {} exceeded".format(limit), pn, lb, ix)


# ----------------------------------------------------------------------
# Plan / cache
# ----------------------------------------------------------------------


class GenPlan:
    """One procedure compiled to a code object for one capability mode."""

    __slots__ = (
        "proc",
        "procname",
        "mode",
        "fingerprint",
        "fn",
        "leaf_fn",
        "source",
        "nparams",
        "is_varargs",
        "inlined",
        "dispatch",
    )

    def __init__(self, proc: Procedure, mode, fingerprint: str) -> None:
        self.proc = proc
        self.procname = proc.name
        self.mode = mode
        self.fingerprint = fingerprint
        self.fn = None
        self.leaf_fn = None
        self.source = ""
        self.nparams = len(proc.params)
        self.is_varargs = ATTR_VARARGS in proc.attrs
        self.inlined: Tuple[str, ...] = ()
        self.dispatch = True


class CodegenCache:
    """Per-program plan store, attached to ``Program._codegen_cache``.

    Same contract as the fast engine's PlanCache: keyed by ``(procedure
    name, mode)``, entries self-validate against the procedure's content
    fingerprint on lookup, and the whole cache is cleared when the
    globals layout signature changes (emitted code embeds resolved
    global addresses)."""

    __slots__ = ("plans", "globals_sig", "plans_compiled", "cache_hits")

    def __init__(self) -> None:
        self.plans: Dict[Tuple[str, tuple], GenPlan] = {}
        self.globals_sig = None
        self.plans_compiled = 0
        self.cache_hits = 0

    def check_globals(self, program) -> None:
        sig = tuple((g.name, g.size) for g in program.all_globals())
        if self.globals_sig != sig:
            self.plans.clear()
            self.globals_sig = sig

    def get_plan(self, proc: Procedure, mode, global_addrs) -> GenPlan:
        key = (proc.name, mode)
        plan = self.plans.get(key)
        fp = _fingerprint(proc)
        if plan is not None and plan.fingerprint == fp:
            self.cache_hits += 1
            return plan
        plan = _GenCompiler(proc, mode, global_addrs, fp).compile()
        self.plans[key] = plan
        self.plans_compiled += 1
        return plan


class _BadOperand(Exception):
    """Compile-time marker: an operand cannot be pre-resolved; the
    instruction is emitted as a raising operand walk instead."""


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------


class _GenCompiler:
    def __init__(self, proc: Procedure, mode, global_addrs, fingerprint: str):
        self.proc = proc
        self.procname = proc.name
        self.mode = mode
        (
            self.f_instr,
            self.f_batch,
            self.f_branch,
            self.f_call,
            self.f_ret,
            self.f_mem,
            _runs,  # always False: codegen delivers per instruction
            self.collect_block,
        ) = mode
        self.fire_boundary = self.f_instr or self.f_batch
        self.global_addrs = global_addrs
        self.plan = GenPlan(proc, mode, fingerprint)
        self.slots: Dict[str, int] = {}
        # Per-emission-pass state (reset by _emit):
        self.lines: List[str] = []
        self.consts: List[Any] = []
        self._kmap: Dict[Any, int] = {}
        self.emitted: set = set()
        self.inlined: List[str] = []
        self.transfers = 0
        self.arms = 0
        self.dispatch = True
        # True while emitting the plain-function form of a leaf
        # procedure (returns instead of yields; see _emit).
        self.leaf_pass = False

    # -- small utilities -----------------------------------------------

    def _w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _k(self, value) -> int:
        try:
            key = (value.__class__.__name__, value)
            hash(key)
        except TypeError:
            key = ("id", id(value))
        idx = self._kmap.get(key)
        if idx is None:
            idx = len(self.consts)
            self.consts.append(value)
            self._kmap[key] = idx
        return idx

    def _lit(self, value) -> str:
        """A Python expression evaluating to ``value`` in emitted code."""
        cls = value.__class__
        if cls is int or cls is str:
            return repr(value)
        if cls is float and value == value and value not in (
            float("inf"),
            float("-inf"),
        ):
            return repr(value)
        if value is None:
            return "None"
        return "K[%d]" % self._k(value)

    # -- operand resolution --------------------------------------------

    def _rop(self, op) -> Tuple[str, Optional[str]]:
        """Resolve one operand to ``(expr, regname)``; regname is None
        for constants.  Raises _BadOperand when unresolvable."""
        cls = op.__class__
        if cls is Reg:
            return ("r%d" % self.slots[op.name], op.name)
        if cls is Imm:
            v = op.value
            if v.__class__ is int:
                return ("(%d)" % v, None)
            return (self._lit(v), None)
        if cls is GlobalRef:
            addr = self.global_addrs.get(op.name)
            if addr is None:
                raise _BadOperand()
            return ("(%d)" % addr, None)
        if cls is FuncRef:
            return ("K[%d]" % self._k(CodePtr(op.name)), None)
        raise _BadOperand()

    def _const_value(self, op):
        """The compile-time value of a constant operand, or _UNSET if
        the operand is a register / unresolvable."""
        cls = op.__class__
        if cls is Imm:
            return op.value
        if cls is GlobalRef:
            addr = self.global_addrs.get(op.name)
            return _UNSET if addr is None else addr
        if cls is FuncRef:
            return CodePtr(op.name)
        return _UNSET

    # -- raising operand walks (unresolvable operands) -----------------

    def _emit_raising_walk(self, instr, label, idx, ind) -> None:
        """Replicate reference operand evaluation for an instruction
        with an unresolvable operand: unset checks in evaluation order,
        raising where the reference engine would."""
        cls = instr.__class__
        if cls is BinOp:
            ops, icall_at = [instr.lhs, instr.rhs], -1
        elif cls is Store:
            ops, icall_at = [instr.addr, instr.value], -1
        elif cls is Ret:
            ops = [instr.value] if instr.value is not None else []
            icall_at = -1
        elif cls is Call:
            ops, icall_at = list(instr.args), -1
        elif cls is ICall:
            ops, icall_at = [instr.func] + list(instr.args), 0
        elif cls is Branch:
            ops, icall_at = [instr.cond], -1
        else:  # Mov/UnOp/Load/Alloca
            ops, icall_at = list(instr.uses()), -1
        w = self._w
        pn = self.procname
        for pos, op in enumerate(ops):
            ocls = op.__class__
            if ocls is Reg:
                expr = "r%d" % self.slots[op.name]
                w(ind, "if %s is _U:" % expr)
                w(ind + 1, "_unset(%r, PN)" % op.name)
            elif ocls is Imm:
                expr = self._lit(op.value)
            elif ocls is GlobalRef:
                addr = self.global_addrs.get(op.name)
                if addr is None:
                    w(ind, "raise _EE('unknown global $%s')" % op.name)
                    return
                expr = "(%d)" % addr
            elif ocls is FuncRef:
                expr = "K[%d]" % self._k(CodePtr(op.name))
            else:
                w(
                    ind,
                    "raise _EE('unknown operand {!r}'.format(K[%d]))" % self._k(op),
                )
                return
            if pos == icall_at:
                w(ind, "if not isinstance(%s, _CP):" % expr)
                w(
                    ind + 1,
                    "raise _EE('indirect call through non-code value {!r}'"
                    ".format(%s), PN, %r, %d)" % (expr, label, idx),
                )
        w(ind, "raise _EE('internal: trapping instruction fell through')")

    # -- micro-ops (segment instructions) ------------------------------

    def _emit_micro(self, instr, label, idx, ind) -> None:
        w = self._w
        cls = instr.__class__
        try:
            if cls is BinOp:
                d = "r%d" % self.slots[instr.dest.name]
                lx, ln = self._rop(instr.lhs)
                rx, rn = self._rop(instr.rhs)
                self._emit_binop(d, instr, lx, ln, rx, rn, label, idx, ind)
                return
            if cls is Mov:
                d = "r%d" % self.slots[instr.dest.name]
                sx, sn = self._rop(instr.src)
                w(ind, "%s = %s" % (d, sx))
                if sn is not None:
                    w(ind, "if %s is _U:" % d)
                    w(ind + 1, "_unset(%r, PN)" % sn)
                return
            if cls is UnOp:
                d = "r%d" % self.slots[instr.dest.name]
                sx, sn = self._rop(instr.src)
                self._emit_unop(d, instr.op, sx, sn, label, idx, ind)
                return
            if cls is Load:
                d = "r%d" % self.slots[instr.dest.name]
                ax, an = self._rop(instr.addr)
                if an is not None:
                    w(ind, "if %s is _U:" % ax)
                    w(ind + 1, "_unset(%r, PN)" % an)
                if self.f_mem:
                    # Capture the address before the destination write
                    # (dest may alias the address register).
                    w(ind, "_a = %s" % ax)
                    w(ind, "if type(_a) is int and _a >= 0:")
                    w(ind + 1, "_v = _cells.get(_a, 0)")
                    w(ind, "else:")
                    w(ind + 1, "_v = _m._load_slow(_a)")
                    w(ind, "_onm(_a, False)")
                    w(ind, "%s = _v" % d)
                else:
                    w(ind, "if type(%s) is int and %s >= 0:" % (ax, ax))
                    w(ind + 1, "%s = _cells.get(%s, 0)" % (d, ax))
                    w(ind, "else:")
                    w(ind + 1, "%s = _ld(_m, %s, %r, PN)" % (d, ax, an))
                return
            if cls is Store:
                ax, an = self._rop(instr.addr)
                vx, vn = self._rop(instr.value)
                if an is not None:
                    w(ind, "if %s is _U:" % ax)
                    w(ind + 1, "_unset(%r, PN)" % an)
                if vn is not None:
                    w(ind, "if %s is _U:" % vx)
                    w(ind + 1, "_unset(%r, PN)" % vn)
                w(ind, "if type(%s) is int and %s >= 0:" % (ax, ax))
                w(ind + 1, "_cells[%s] = %s" % (ax, vx))
                w(ind, "else:")
                w(ind + 1, "_m._store_slow(%s, %s)" % (ax, vx))
                if self.f_mem:
                    w(ind, "_onm(%s, True)" % ax)
                return
            if cls is Alloca:
                d = "r%d" % self.slots[instr.dest.name]
                sx, sn = self._rop(instr.size)
                cv = self._const_value(instr.size)
                if sn is None and cv.__class__ is int and cv >= 0:
                    w(ind, "_v = st.stack_top - %d" % cv)
                    w(ind, "st.stack_top = _v")
                    w(ind, "%s = _v" % d)
                else:
                    w(
                        ind,
                        "%s = _al(st, %s, %r, PN, %r, %d)"
                        % (d, sx, sn, label, idx),
                    )
                return
            if cls is Probe:
                w(ind, "_pc[%s] += 1" % self._lit(instr.counter_id))
                return
        except _BadOperand:
            self._emit_raising_walk(instr, label, idx, ind)
            return
        # Unknown instruction class: trap exactly like the reference.
        w(
            ind,
            "raise _EE('unknown instruction {!r}'.format(K[%d]), PN, %r, %d)"
            % (self._k(instr), label, idx),
        )

    def _emit_binop(self, d, instr, lx, ln, rx, rn, label, idx, ind) -> None:
        w = self._w
        op = instr.op
        slow = "%s = _bs(%r, %s, %s, %r, %r, PN, %r, %d)" % (
            d, op, lx, rx, ln, rn, label, idx,
        )
        if ln is None and rn is None:
            # Constant fold when the reference evaluation cannot trap.
            x = self._const_value(instr.lhs)
            y = self._const_value(instr.rhs)
            if x is not _UNSET and y is not _UNSET and not (
                isinstance(x, CodePtr) or isinstance(y, CodePtr)
            ):
                try:
                    folded = eval_binop(op, x, y)
                except (EvalError, TypeError):
                    folded = _UNSET
                if folded is not _UNSET:
                    w(ind, "%s = %s" % (d, self._lit(folded)))
                    return
        guard = "type(%s) is int and type(%s) is int" % (lx, rx)
        if op in ("add", "sub", "mul"):
            pyop = {"add": "+", "sub": "-", "mul": "*"}[op]
            w(ind, "if %s:" % guard)
            w(ind + 1, "_v = (%s %s %s) & %d" % (lx, pyop, rx, _MASK))
            w(ind + 1, "%s = _v - %d if _v > %d else _v" % (d, _TWO64, _IMAX))
            w(ind, "else:")
            w(ind + 1, slow)
        elif op in ("div", "mod"):
            w(ind, "if %s and %s != 0:" % (guard, rx))
            w(ind + 1, "_q = abs(%s) // abs(%s)" % (lx, rx))
            w(ind + 1, "if (%s < 0) != (%s < 0):" % (lx, rx))
            w(ind + 2, "_q = -_q")
            if op == "mod":
                w(ind + 1, "_v = (%s - _q * %s) & %d" % (lx, rx, _MASK))
            else:
                w(ind + 1, "_v = _q & %d" % _MASK)
            w(ind + 1, "%s = _v - %d if _v > %d else _v" % (d, _TWO64, _IMAX))
            w(ind, "else:")
            w(ind + 1, slow)
        elif op in ("shl", "shr"):
            w(ind, "if %s:" % guard)
            if op == "shl":
                w(ind + 1, "_v = ((%s & %d) << (%s %% 64)) & %d" % (lx, _MASK, rx, _MASK))
            else:
                w(ind + 1, "_v = (%s >> (%s %% 64)) & %d" % (lx, rx, _MASK))
            w(ind + 1, "%s = _v - %d if _v > %d else _v" % (d, _TWO64, _IMAX))
            w(ind, "else:")
            w(ind + 1, slow)
        elif op in ("and", "or", "xor"):
            pyop = {"and": "&", "or": "|", "xor": "^"}[op]
            w(ind, "if %s:" % guard)
            w(ind + 1, "_v = (%s & %d) %s (%s & %d)" % (lx, _MASK, pyop, rx, _MASK))
            w(ind + 1, "%s = _v - %d if _v > %d else _v" % (d, _TWO64, _IMAX))
            w(ind, "else:")
            w(ind + 1, slow)
        elif op in ("eq", "ne", "lt", "le", "gt", "ge"):
            pyop = {
                "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
            }[op]
            w(ind, "if %s:" % guard)
            w(ind + 1, "%s = 1 if %s %s %s else 0" % (d, lx, pyop, rx))
            w(ind, "else:")
            w(ind + 1, slow)
        else:
            w(ind, slow)

    def _emit_unop(self, d, op, sx, sn, label, idx, ind) -> None:
        w = self._w
        if op == "lnot":
            # lnot never raises once the operand is known set.
            if sn is not None:
                w(ind, "if %s is _U:" % sx)
                w(ind + 1, "_unset(%r, PN)" % sn)
            w(ind, "%s = 0 if %s else 1" % (d, sx))
            return
        if op == "neg":
            w(ind, "if type(%s) is int:" % sx)
            w(ind + 1, "_v = (0 - %s) & %d" % (sx, _MASK))
            w(ind + 1, "%s = _v - %d if _v > %d else _v" % (d, _TWO64, _IMAX))
            w(ind, "else:")
            w(
                ind + 1,
                "%s = _us(%r, %s, %r, PN, %r, %d)" % (d, op, sx, sn, label, idx),
            )
            return
        w(ind, "%s = _us(%r, %s, %r, PN, %r, %d)" % (d, op, sx, sn, label, idx))

    # -- step accounting: fused segment + boundary ---------------------

    def _emit_event(self, instr, label, idx, ind) -> None:
        self._w(ind, "_oni(P, %r, %d, K[%d])" % (label, idx, self._k(instr)))

    def _emit_seg_head(self, seg, label, bidx, binstr, ind) -> None:
        """Step accounting + segment body + boundary on_instr for a
        straight-line segment fused into the boundary at ``bidx``.
        ``seg`` is a list of ``(idx, instr)``."""
        w = self._w
        kk = len(seg) + 1
        w(ind, "_s = st.steps + %d" % kk)
        w(ind, "if _s > _max:")
        self._emit_replay(seg, label, ind + 1)
        w(ind + 1, "st.steps = st.steps + 1")
        w(ind + 1, "_sl(_max, PN, %r, %d)" % (label, bidx))
        w(ind, "st.steps = _s")
        if self.f_batch:
            for idx, instr in seg:
                self._emit_event(instr, label, idx, ind)
        for idx, instr in seg:
            if self.f_instr:
                self._emit_event(instr, label, idx, ind)
            self._emit_micro(instr, label, idx, ind)
        if self.fire_boundary:
            self._emit_event(binstr, label, bidx, ind)

    def _emit_replay(self, seg, label, ind) -> None:
        """Exact per-instruction replay of a segment whose batched step
        check found the limit inside it: bump, check, (on_instr),
        execute — identical to the reference loop."""
        w = self._w
        for idx, instr in seg:
            w(ind, "st.steps = st.steps + 1")
            w(ind, "if st.steps > _max:")
            w(ind + 1, "_sl(_max, PN, %r, %d)" % (label, idx))
            if self.fire_boundary:
                self._emit_event(instr, label, idx, ind)
            self._emit_micro(instr, label, idx, ind)

    # -- boundaries ----------------------------------------------------

    def _emit_jump(self, instr, label, idx, seg, ind, depth) -> None:
        self._emit_seg_head(seg, label, idx, instr, ind)
        if self.f_branch:
            self._w(
                ind,
                "_onb(P, %r, %d, 'jump', True, %s)"
                % (label, idx, self._lit(instr.target)),
            )
        self._emit_transfer(instr.target, ind, depth)

    def _emit_branch(self, instr, label, idx, seg, ind, depth) -> None:
        try:
            cx, cn = self._rop(instr.cond)
        except _BadOperand:
            self._emit_seg_head(seg, label, idx, instr, ind)
            self._emit_raising_walk(instr, label, idx, ind)
            return
        self._emit_seg_head(seg, label, idx, instr, ind)
        w = self._w
        if cn is not None:
            w(ind, "if %s is _U:" % cx)
            w(ind + 1, "_unset(%r, PN)" % cn)
        cv = self._const_value(instr.cond)
        if cn is None and cv is not _UNSET:
            # Constant condition: emit only the taken arm.
            taken = bool(cv)
            target = instr.then_target if taken else instr.else_target
            if self.f_branch:
                w(
                    ind,
                    "_onb(P, %r, %d, 'cond', %r, %s)"
                    % (label, idx, taken, self._lit(target)),
                )
            self._emit_transfer(target, ind, depth)
            return
        w(ind, "if %s:" % cx)
        if self.f_branch:
            w(
                ind + 1,
                "_onb(P, %r, %d, 'cond', True, %s)"
                % (label, idx, self._lit(instr.then_target)),
            )
        self._emit_transfer(instr.then_target, ind + 1, depth + 1)
        w(ind, "else:")
        if self.f_branch:
            w(
                ind + 1,
                "_onb(P, %r, %d, 'cond', False, %s)"
                % (label, idx, self._lit(instr.else_target)),
            )
        self._emit_transfer(instr.else_target, ind + 1, depth + 1)

    def _emit_ret(self, instr, label, idx, seg, ind) -> None:
        if instr.value is not None:
            try:
                vx, vn = self._rop(instr.value)
            except _BadOperand:
                self._emit_seg_head(seg, label, idx, instr, ind)
                self._emit_raising_walk(instr, label, idx, ind)
                return
        else:
            vx, vn = "None", None
        self._emit_seg_head(seg, label, idx, instr, ind)
        w = self._w
        if vn is not None:
            w(ind, "if %s is _U:" % vx)
            w(ind + 1, "_unset(%r, PN)" % vn)
        if self.leaf_pass:
            # Plain-function form: restore the stack pointer (the frame
            # pop would have) and return the value directly.
            if self.uses_alloca:
                w(ind, "st.stack_top = _sv")
            w(ind, "return %s" % vx)
        else:
            w(ind, "yield (_RM, %s)" % vx)

    def _emit_call(self, instr, label, idx, seg, ind) -> None:
        is_icall = instr.__class__ is ICall
        try:
            if is_icall:
                fx, fn = self._rop(instr.func)
            else:
                fx, fn = None, None
            argspec = [self._rop(a) for a in instr.args]
        except _BadOperand:
            self._emit_seg_head(seg, label, idx, instr, ind)
            self._emit_raising_walk(instr, label, idx, ind)
            return
        self._emit_seg_head(seg, label, idx, instr, ind)
        w = self._w
        if is_icall:
            if fn is not None:
                w(ind, "if %s is _U:" % fx)
                w(ind + 1, "_unset(%r, PN)" % fn)
            w(ind, "if not isinstance(%s, _CP):" % fx)
            w(
                ind + 1,
                "raise _EE('indirect call through non-code value {!r}'"
                ".format(%s), PN, %r, %d)" % (fx, label, idx),
            )
            fexpr = "%s.name" % fx
            static_name = None
        else:
            fexpr = None
            static_name = instr.callee
        w(ind, "A = [%s]" % ", ".join(x for x, _n in argspec))
        regnames = tuple(n for _x, n in argspec)
        if any(n is not None for n in regnames):
            w(ind, "if _U in A:")
            w(ind + 1, "_at(A, K[%d], PN)" % self._k(regnames))
        has_dest = instr.dest is not None
        site = (self.proc.module, instr.site_id)
        meta = (static_name, has_dest, label, idx, site)
        if is_icall:
            req = "(K[%d], A, %s)" % (self._k(meta), fexpr)
            if has_dest:
                w(ind, "r%d = yield %s" % (self.slots[instr.dest.name], req))
            else:
                w(ind, "yield %s" % req)
            return
        # Direct call: resolve the callee through the per-run link table
        # once per activation (same hot-swap semantics as the trampoline
        # would apply), then — when the target is a *leaf* plan — invoke
        # its plain compiled function right at the call site, skipping
        # the generator/trampoline round trip entirely.  Non-leaf
        # targets ride to the trampoline with the plan pre-resolved.
        name = static_name
        fc = "_fc%d" % self.callee_locals[name]
        lf = "_lf%d" % self.callee_locals[name]
        w(ind, "if %s is _MS:" % fc)
        w(ind + 1, "%s = _lk.get(%r, _MS)" % (fc, name))
        w(ind + 1, "if %s is _MS:" % fc)
        w(ind + 2, "%s = st.resolve(%r)" % (fc, name))
        w(ind + 1, "%s = %s.leaf_fn if %s is not None else None" % (lf, fc, fc))
        w(ind, "if %s is not None:" % lf)
        b = ind + 1
        w(b, "st.call_count += 1")
        w(b, "if _cs:")
        w(b + 1, "_sc[K[%d]] += 1" % self._k(site))
        if self.f_call:
            w(b, "_onc(P, %r, 'direct', %d)" % (name, len(instr.args)))
        w(b, "if len(_fr) >= %d:" % _STACK_LIMIT)
        w(b + 1, "raise _EE(%r)" % ("call stack overflow in @%s" % name))
        w(b, "_v = %s(st, A)" % lf)
        if self.f_ret:
            w(b, "_onr(%r, P)" % name)
        if has_dest:
            w(b, "if _v is None:")
            w(
                b + 1,
                "raise _EE(%r)"
                % ("void return into a result register from @%s" % name),
            )
            w(b, "r%d = _v" % self.slots[instr.dest.name])
        w(ind, "else:")
        req = "(K[%d], A, %s)" % (self._k(meta), fc)
        if has_dest:
            w(ind + 1, "r%d = yield %s" % (self.slots[instr.dest.name], req))
        else:
            w(ind + 1, "yield %s" % req)

    # -- control transfer / block emission -----------------------------

    def _emit_transfer(self, target, ind, depth) -> None:
        if target not in self.proc.blocks:
            # Lazy trap: a never-taken edge to a missing block raises
            # without a step, like the reference top-of-loop lookup.
            self._w(
                ind,
                "raise _EE('jump to missing block', PN, %r, 0)" % str(target),
            )
            return
        if (
            self.edge_preds.get(target, 0) == 1
            and target != self.proc.entry
            and target not in self.emitted
            and depth < INLINE_DEPTH_CAP
            and ind < INLINE_INDENT_CAP
        ):
            # Superinstruction inlining: this block's only incoming edge
            # is the one being emitted, so its body can be spliced in
            # right here and its dispatch arm disappears.
            self.emitted.add(target)
            self.inlined.append(target)
            self._emit_block(target, ind, depth + 1)
            return
        if not self.dispatch:
            raise AssertionError(
                "codegen: transfer emitted in dispatch-free pass"
            )  # pragma: no cover
        self.transfers += 1
        self._w(ind, "_L = %d" % self.block_ids[target])
        self._w(ind, "continue")

    def _emit_block(self, label, ind, depth) -> None:
        proc = self.proc
        block = proc.blocks[label]
        w = self._w
        if self.collect_block:
            w(ind, "_bc[K[%d]] += 1" % self._k((proc.name, label)))
        seg: List[Tuple[int, Any]] = []
        for idx, instr in enumerate(block.instrs):
            cls = instr.__class__
            if cls is Call or cls is ICall:
                self._emit_call(instr, label, idx, seg, ind)
                seg = []
            elif cls is Jump:
                self._emit_jump(instr, label, idx, seg, ind, depth)
                return
            elif cls is Branch:
                self._emit_branch(instr, label, idx, seg, ind, depth)
                return
            elif cls is Ret:
                self._emit_ret(instr, label, idx, seg, ind)
                return
            else:
                seg.append((idx, instr))
        # Fell off the end of the block (no terminator).
        if seg:
            w(ind, "_s = st.steps + %d" % len(seg))
            w(ind, "if _s > _max:")
            self._emit_replay(seg, label, ind + 1)
            w(ind, "else:")
            w(ind + 1, "st.steps = _s")
            if self.f_batch:
                for idx, instr in seg:
                    self._emit_event(instr, label, idx, ind + 1)
            for idx, instr in seg:
                if self.f_instr:
                    self._emit_event(instr, label, idx, ind + 1)
                self._emit_micro(instr, label, idx, ind + 1)
        w(
            ind,
            "raise _EE('fell off the end of block', PN, %r, %d)"
            % (label, len(block.instrs)),
        )

    # -- whole-procedure emission --------------------------------------

    def _assign_slots(self) -> None:
        slots = self.slots
        for name, _ty in self.proc.params:
            if name not in slots:
                slots[name] = len(slots)
        for block in self.proc.blocks.values():
            for instr in block.instrs:
                dest = instr.dest
                if dest is not None and dest.name not in slots:
                    slots[dest.name] = len(slots)
                for used in instr.uses():
                    if used.__class__ is Reg and used.name not in slots:
                        slots[used.name] = len(slots)

    def _analyze(self) -> None:
        proc = self.proc
        self._assign_slots()
        # Count incoming *edges* per block (two edges from one branch
        # count twice, so a block is inlined only when exactly one
        # emitted transfer reaches it).
        preds: Dict[Any, int] = {}
        for label, block in proc.blocks.items():
            term = block.instrs[-1] if block.instrs else None
            cls = term.__class__
            if cls is Jump:
                preds[term.target] = preds.get(term.target, 0) + 1
            elif cls is Branch:
                preds[term.then_target] = preds.get(term.then_target, 0) + 1
                preds[term.else_target] = preds.get(term.else_target, 0) + 1
        self.edge_preds = preds
        self.block_ids = {label: i for i, label in enumerate(proc.blocks)}
        # Dispatch arm order: entry first, then hottest first by the
        # training profile (stable on the original block order).
        labels = list(proc.blocks)
        entry = proc.entry
        rest = [lb for lb in labels if lb != entry]
        rest.sort(
            key=lambda lb: (
                -(proc.blocks[lb].profile_count or 0),
                self.block_ids[lb],
            )
        )
        self.order = ([entry] if entry in proc.blocks else []) + rest
        # Hoists.
        classes = {
            instr.__class__
            for block in proc.blocks.values()
            for instr in block.instrs
        }
        self.uses_mem = bool(classes & {Load, Store})
        self.uses_probe = Probe in classes
        self.uses_branch_ev = self.f_branch and bool(classes & {Branch, Jump})
        self.uses_alloca = Alloca in classes
        self.has_calls = bool(classes & {Call, ICall})
        # A leaf procedure (no call sites, fixed arity) also compiles to
        # a plain function callers can invoke without the trampoline.
        self.is_leaf = not self.has_calls and not self.plan.is_varargs
        # One pair of resolution-cache locals per distinct direct
        # callee: _fcN holds the resolved plan (or None), _lfN its leaf
        # function, so repeated calls within one activation skip the
        # link-table lookup entirely.
        self.callee_locals: Dict[str, int] = {}
        for block in proc.blocks.values():
            for instr in block.instrs:
                if instr.__class__ is Call and instr.callee not in self.callee_locals:
                    self.callee_locals[instr.callee] = len(self.callee_locals)

    def _emit(self, dispatch: bool, leaf: bool = False, reset: bool = True) -> None:
        if reset:
            self.lines = []
            self.consts = []
            self._kmap = {}
        self.emitted = set()
        self.inlined = []
        self.transfers = 0
        self.arms = 0
        self.dispatch = dispatch
        self.leaf_pass = leaf
        proc = self.proc
        w = self._w
        nparams = len(proc.params)
        if leaf:
            w(0, "def _leaf(st, A):")
            # The trampoline's arity check, done inline (leaf procedures
            # are never varargs).
            w(1, "if len(A) != %d:" % nparams)
            w(
                2,
                "raise _EE(%r.format(len(A)))"
                % (
                    "arity mismatch calling @%s: {} args for %d params"
                    % (self.procname, nparams)
                ),
            )
        else:
            w(0, "def _proc(st, A):")
            # A bare function with no yield would not be a generator; the
            # dead conditional forces generator-ness without runtime cost.
            w(1, "if 0:")
            w(2, "yield")
        param_slots = [self.slots[name] for name, _ty in proc.params]
        if nparams:
            if len(set(param_slots)) == nparams:
                w(
                    1,
                    "%s%s = A"
                    % (
                        ", ".join("r%d" % s for s in param_slots),
                        "," if nparams == 1 else "",
                    ),
                )
            else:
                # Duplicate parameter names share a slot; assign in
                # order so the last binding wins, like the reference.
                for i, slot in enumerate(param_slots):
                    w(1, "r%d = A[%d]" % (slot, i))
        rest = sorted(set(self.slots.values()) - set(param_slots))
        for start in range(0, len(rest), 16):
            chunk = rest[start : start + 16]
            w(1, "%s = _U" % " = ".join("r%d" % s for s in chunk))
        w(1, "_max = st.max_steps")
        if leaf and self.uses_alloca:
            w(1, "_sv = st.stack_top")
        if self.has_calls:
            w(1, "_lk = st.link")
            w(1, "_fr = st.frames")
            w(1, "_cs = st.collect_site")
            w(1, "_sc = st.site_counts")
            ncallee = len(self.callee_locals)
            for start in range(0, ncallee, 16):
                chunk = range(start, min(start + 16, ncallee))
                w(1, "%s = _MS" % " = ".join("_fc%d" % i for i in chunk))
            if self.f_call:
                w(1, "_onc = st.sink.on_call")
            if self.f_ret:
                w(1, "_onr = st.sink.on_return")
        if self.uses_mem:
            w(1, "_m = st.memory")
            w(1, "_cells = _m.cells")
        if self.uses_probe:
            w(1, "_pc = st.probe_counts")
        if self.collect_block:
            w(1, "_bc = st.block_counts")
        if self.fire_boundary:
            w(1, "_oni = st.sink.on_instr")
        if self.uses_branch_ev:
            w(1, "_onb = st.sink.on_branch")
        if self.f_mem and self.uses_mem:
            w(1, "_onm = st.sink.on_mem")
        entry = proc.entry
        if entry not in proc.blocks:
            w(1, "raise _EE('jump to missing block', PN, %r, 0)" % str(entry))
            return
        if not dispatch:
            self.emitted.add(entry)
            self._emit_block(entry, 1, 0)
            return
        w(1, "_L = %d" % self.block_ids[entry])
        w(1, "while 1:")
        first = True
        for label in self.order:
            if label in self.emitted:
                continue
            self.emitted.add(label)
            self.arms += 1
            w(2, "%s _L == %d:" % ("if" if first else "elif", self.block_ids[label]))
            first = False
            self._emit_block(label, 3, 0)
        w(2, "else:")
        w(3, "raise _EE('internal: unknown dispatch label in @%s')" % self.procname)

    def compile(self) -> GenPlan:
        self._analyze()
        self._emit(dispatch=True)
        use_dispatch = not (self.transfers == 0 and self.arms <= 1)
        if not use_dispatch:
            # Everything was inlined into the entry chain: re-emit
            # without the while/dispatch shell.
            self._emit(dispatch=False)
            self.plan.dispatch = False
        inlined = tuple(self.inlined)
        if self.is_leaf:
            # Leaf procedures additionally compile to a plain function
            # (same body, `return` instead of yield) that call sites and
            # the trampoline invoke directly — no generator, no frame.
            self._emit(dispatch=use_dispatch, leaf=True, reset=False)
        src = "\n".join(self.lines) + "\n"
        namespace = {
            "_U": _UNSET,
            "_RM": _RETM,
            "_CP": CodePtr,
            "_EE": ExecError,
            "_MS": _MISS,
            "_sl": _sl_raise,
            "_unset": _unset,
            "_bs": _binop_slow,
            "_us": _unop_slow,
            "_ld": _load_guard,
            "_at": _args_trap,
            "_al": _alloca_slow,
            "K": tuple(self.consts),
            "P": self.proc,
            "PN": self.procname,
            "isinstance": isinstance,
            "type": type,
            "abs": abs,
            "len": len,
        }
        code = compile(src, "<repro-codegen:%s>" % self.procname, "exec")
        exec(code, namespace)
        plan = self.plan
        plan.fn = namespace["_proc"]
        plan.leaf_fn = namespace.get("_leaf")
        plan.source = src
        plan.inlined = inlined
        return plan


# ----------------------------------------------------------------------
# Executor (trampoline driver)
# ----------------------------------------------------------------------


class _GenFrame:
    """Activation record: a suspended emitted generator.  Lives on the
    interpreter's shared ``_frames`` list so the varargs builtins see
    ``frame.varargs`` exactly as with the other engines."""

    __slots__ = ("plan", "gen", "dest", "saved_stack", "varargs")


def _push(st, plan: GenPlan, args: List[Any], has_dest: bool) -> _GenFrame:
    frames = st.frames
    if len(frames) >= _STACK_LIMIT:
        raise ExecError("call stack overflow in @{}".format(plan.procname))
    frame = _GenFrame()
    frame.plan = plan
    frame.dest = has_dest
    frame.saved_stack = st.stack_top
    nfixed = plan.nparams
    if plan.is_varargs:
        if len(args) < nfixed:
            raise ExecError("too few args for varargs @{}".format(plan.procname))
        frame.varargs = args[nfixed:]
        del args[nfixed:]
    else:
        if len(args) != nfixed:
            raise ExecError(
                "arity mismatch calling @{}: {} args for {} params".format(
                    plan.procname, len(args), nfixed
                )
            )
        frame.varargs = _NO_VARARGS
    frame.gen = plan.fn(st, args)
    frames.append(frame)
    return frame


def _drive(st, frame: _GenFrame, f_call: bool, f_ret: bool):
    """Run emitted generators until the root frame returns.

    Emitted code yields ``(_RETM, value)`` for returns and
    ``(meta, args, funcname)`` for calls; everything else — frame
    stack, per-run name resolution (hot-swap semantics), builtins,
    on_call/on_return delivery — happens here, mirroring the fast
    engine's call part ordering exactly."""
    frames = st.frames
    depth0 = st.depth0
    link = st.link
    builtins = st.builtins
    collect_site = st.collect_site
    site_counts = st.site_counts
    sink = st.sink
    gen = frame.gen
    send = None
    while True:
        req = gen.send(send)
        if req[0] is _RETM:
            value = req[1]
            frames.pop()
            st.stack_top = frame.saved_stack
            if len(frames) == depth0:
                return value
            prev = frames[-1]
            if f_ret:
                sink.on_return(frame.plan.procname, prev.plan.proc)
            if frame.dest:
                if value is None:
                    raise ExecError(
                        "void return into a result register from @{}".format(
                            frame.plan.procname
                        )
                    )
                send = value
            else:
                send = None
            frame = prev
            gen = frame.gen
            continue
        meta, args, fname = req
        st.call_count += 1
        if collect_site:
            site_counts[meta[4]] += 1
        if fname is None:
            # Direct call whose call site found no plan (builtin or
            # unresolved external; None is already cached in the link).
            name = meta[0]
            kind = "direct"
            plan = link.get(name, _MISS)
            if plan is _MISS:
                plan = st.resolve(name)
        elif fname.__class__ is str:
            name = fname
            kind = "indirect"
            plan = link.get(name, _MISS)
            if plan is _MISS:
                plan = st.resolve(name)
        else:
            # Direct call with the plan pre-resolved at the call site.
            plan = fname
            name = meta[0]
            kind = "direct"
        if plan is not None:
            if f_call:
                sink.on_call(frame.plan.proc, name, kind, len(args))
            lf = plan.leaf_fn
            if lf is not None:
                # Leaf target (only reached via icall — direct call
                # sites invoke leaf functions without yielding): no
                # frame, no generator, one plain call.
                if len(frames) >= _STACK_LIMIT:
                    raise ExecError(
                        "call stack overflow in @{}".format(plan.procname)
                    )
                value = lf(st, args)
                if f_ret:
                    sink.on_return(plan.procname, frame.plan.proc)
                if meta[1]:
                    if value is None:
                        raise ExecError(
                            "void return into a result register from @{}".format(
                                plan.procname
                            )
                        )
                    send = value
                else:
                    send = None
                continue
            # Non-leaf: push an activation record (the body of _push,
            # inlined on the hot path).
            if len(frames) >= _STACK_LIMIT:
                raise ExecError(
                    "call stack overflow in @{}".format(plan.procname)
                )
            nf = _GenFrame()
            nf.plan = plan
            nf.dest = meta[1]
            nf.saved_stack = st.stack_top
            nfixed = plan.nparams
            if plan.is_varargs:
                if len(args) < nfixed:
                    raise ExecError(
                        "too few args for varargs @{}".format(plan.procname)
                    )
                nf.varargs = args[nfixed:]
                del args[nfixed:]
            else:
                if len(args) != nfixed:
                    raise ExecError(
                        "arity mismatch calling @{}: {} args for {} params".format(
                            plan.procname, len(args), nfixed
                        )
                    )
                nf.varargs = _NO_VARARGS
            gen = nf.gen = plan.fn(st, args)
            frames.append(nf)
            frame = nf
            send = None
            continue
        builtin = builtins.get(name)
        if builtin is None:
            raise ExecError(
                "call to unresolved external @{}".format(name),
                frame.plan.procname,
                meta[2],
                meta[3],
            )
        if f_call:
            sink.on_call(frame.plan.proc, name, "builtin", len(args))
        send = builtin(args)


def execute(interp, proc: Procedure, args: List[Any]):
    """Entry point used by ``Interpreter.run`` for ``engine="codegen"``.

    Shares the interpreter's memory, output, counters, builtins, and
    frame list (via the fast engine's per-run state object), so builtins
    — including ``exit`` and the varargs pair — behave identically to
    the other engines; run totals are synced back even when the run
    unwinds with ``_Exit`` or a trap."""
    program = interp.program
    cache = getattr(program, "_codegen_cache", None)
    if cache is None:
        cache = CodegenCache()
        program._codegen_cache = cache
    cache.check_globals(program)
    mode = sink_mode(interp.sink, runs=False) + (bool(interp.collect_block_counts),)
    st = _ExecState(interp, cache, mode)
    compiled0 = cache.plans_compiled
    hits0 = cache.cache_hits
    exit_code = 0
    ret = None
    try:
        try:
            plan = st.resolve(proc.name)
            frame = _push(st, plan, list(args), False)
            ret = _drive(st, frame, mode[3], mode[4])
        finally:
            interp.steps = st.steps
            interp.call_count = st.call_count
            interp._stack_top = st.stack_top
            interp.plans_compiled += cache.plans_compiled - compiled0
            interp.plan_cache_hits += cache.cache_hits - hits0
        if isinstance(ret, int):
            exit_code = wrap_int(ret)
    except _Exit as ex:
        exit_code = wrap_int(ex.code)
    return Result(
        exit_code,
        interp.output,
        interp.steps,
        interp.probe_counts,
        interp.site_counts,
        interp.block_counts,
        interp.call_count,
    )


def emitted_source(program, proc_name: str, sink=None, collect_block=False) -> str:
    """The Python source emitted for ``proc_name`` under the given sink
    capability mode (compiling it on demand).  Debugging/docs helper —
    also exposed as ``python -m repro.interp.codegen``."""
    from .interpreter import Interpreter

    interp = Interpreter(program, sink=sink, collect_block_counts=collect_block)
    cache = getattr(program, "_codegen_cache", None)
    if cache is None:
        cache = CodegenCache()
        program._codegen_cache = cache
    cache.check_globals(program)
    mode = sink_mode(sink, runs=False) + (bool(collect_block),)
    proc = interp._procs[proc_name]
    return cache.get_plan(proc, mode, interp._global_addrs).source


def main(argv=None) -> int:  # pragma: no cover - thin CLI
    import argparse

    from ..workloads.suite import get_workload

    parser = argparse.ArgumentParser(
        prog="repro.interp.codegen",
        description="dump the Python source emitted for a procedure",
    )
    parser.add_argument("--workload", default="compress")
    parser.add_argument("--proc", default="main")
    args = parser.parse_args(argv)
    program = get_workload(args.workload).compile()
    print(emitted_source(program, args.proc), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
