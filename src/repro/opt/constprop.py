"""Conditional constant propagation.

A forward dataflow over the register-constancy lattice
(UNDEF < CONST(v) < NAC) per (block, register), followed by a rewrite
that substitutes constant registers, folds arithmetic, and collapses
branches on constant conditions to jumps.  Iterating this pass with
simplify-CFG approximates SCCP: once a branch folds, the dead arm stops
polluting the merge, so the next round can propagate further.

This is the pass that cashes in cloning's "caller passes constant 0"
specialization: the clone's entry block materializes the constant, and
this pass folds the parameter tests downstream.
"""

from __future__ import annotations

import heapq
from typing import Dict, Sequence, Union

from ..ir.instructions import BinOp, Branch, ICall, Instr, Jump, Mov, UnOp
from ..ir.ops import EvalError, eval_binop, eval_unop
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.types import Type
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg

# Lattice values: None = NAC; the _Undef sentinel = unknown-yet; an
# operand (Imm/FuncRef/GlobalRef) = known constant.
_UNDEF = object()
Lattice = Union[None, object, Imm, FuncRef, GlobalRef]


def _meet(a: Lattice, b: Lattice) -> Lattice:
    if a is _UNDEF:
        return b
    if b is _UNDEF:
        return a
    if a is None or b is None:
        return None
    return a if a == b else None


def _value(op: Operand, state: Dict[str, Lattice]) -> Lattice:
    if isinstance(op, Reg):
        return state.get(op.name, _UNDEF)
    return op  # Imm / FuncRef / GlobalRef are constants


def _transfer(instrs: Sequence[Instr], state: Dict[str, Lattice]) -> None:
    """Apply ``instrs`` in order to ``state``, in place."""
    for instr in instrs:
        cls = instr.__class__
        if cls is Mov:
            state[instr.dest.name] = _value(instr.src, state)
        elif cls is BinOp:
            state[instr.dest.name] = _fold_binop(
                instr.op, _value(instr.lhs, state), _value(instr.rhs, state)
            )
        elif cls is UnOp:
            state[instr.dest.name] = _fold_unop(instr.op, _value(instr.src, state))
        elif instr.dest is not None:  # Load, Call, ICall, Alloca
            state[instr.dest.name] = None


def _fold_binop(op: str, lhs: Lattice, rhs: Lattice) -> Lattice:
    if lhs is _UNDEF or rhs is _UNDEF:
        return _UNDEF
    if lhs is None or rhs is None:
        return None
    if isinstance(lhs, FuncRef) and isinstance(rhs, FuncRef):
        if op == "eq":
            return Imm(1 if lhs.name == rhs.name else 0)
        if op == "ne":
            return Imm(0 if lhs.name == rhs.name else 1)
        return None
    if not isinstance(lhs, Imm) or not isinstance(rhs, Imm):
        return None  # address arithmetic on globals stays symbolic
    try:
        value = eval_binop(op, lhs.value, rhs.value)
    except (EvalError, TypeError):
        return None  # e.g. division by a constant zero: keep the trap
    if isinstance(value, float):
        return Imm(value, Type.FLT)
    return Imm(value)


def _fold_unop(op: str, src: Lattice) -> Lattice:
    if src is _UNDEF:
        return _UNDEF
    if not isinstance(src, Imm):
        return None
    try:
        value = eval_unop(op, src.value)
    except (EvalError, TypeError):
        return None
    if isinstance(value, float):
        return Imm(value, Type.FLT)
    return Imm(value)


def constant_propagation(program: Program, proc: Procedure) -> bool:
    """Run the analysis and rewrite; returns True when IR changed."""
    labels = proc.rpo_labels()
    if not labels:
        return False
    preds = proc.predecessors()
    position = {label: i for i, label in enumerate(labels)}

    # Dataflow to fixpoint: a worklist of blocks in reverse postorder,
    # revisiting a block only when a predecessor's out-state changed.
    # The lattice is finite and every transfer monotone, so this
    # reaches the same fixpoint as sweeping every block each round;
    # the visit bound only guards against a non-monotone surprise.
    ins: Dict[str, Dict[str, Lattice]] = {}
    outs: Dict[str, Dict[str, Lattice]] = {}
    entry_state: Dict[str, Lattice] = {name: None for name, _ in proc.params}
    pending = list(range(len(labels)))  # already a heap
    queued = [True] * len(labels)
    visits = 50 * len(labels)
    while pending and visits:
        visits -= 1
        index = heapq.heappop(pending)
        queued[index] = False
        label = labels[index]
        if label == proc.entry:
            in_state = dict(entry_state)
        else:
            in_state = {}
            first = True
            for pred in preds[label]:
                pstate = outs.get(pred)
                if pstate is None:
                    continue
                if first:
                    in_state = dict(pstate)
                    first = False
                else:
                    keys = set(in_state) | set(pstate)
                    in_state = {
                        k: _meet(in_state.get(k, _UNDEF), pstate.get(k, _UNDEF))
                        for k in keys
                    }
        ins[label] = in_state
        out_state = dict(in_state)
        _transfer(proc.blocks[label].instrs, out_state)
        if outs.get(label) != out_state:
            outs[label] = out_state
            for succ in proc.blocks[label].successors():
                succ_index = position.get(succ)
                if succ_index is not None and not queued[succ_index]:
                    queued[succ_index] = True
                    heapq.heappush(pending, succ_index)

    # Rewrite using the in-states.
    rewritten = False
    state: Dict[str, Lattice] = {}

    def subst(op: Operand) -> Operand:
        nonlocal rewritten
        if isinstance(op, Reg):
            known = state.get(op.name, _UNDEF)
            if isinstance(known, (Imm, FuncRef, GlobalRef)):
                rewritten = True
                return known
        return op

    for label in labels:
        state = dict(ins.get(label, {}))
        block = proc.blocks[label]
        new_instrs = []
        for instr in block.instrs:
            # Placed instructions are never edited; a substituted one
            # is a new object in ``new_instrs``.
            instr = instr.with_operands(subst)

            replacement = instr
            cls = instr.__class__
            if cls is BinOp:
                folded = _fold_binop(
                    instr.op, _value(instr.lhs, state), _value(instr.rhs, state)
                )
                if isinstance(folded, (Imm, FuncRef, GlobalRef)):
                    replacement = Mov(instr.dest, folded)
                    rewritten = True
            elif cls is UnOp:
                folded = _fold_unop(instr.op, _value(instr.src, state))
                if isinstance(folded, (Imm, FuncRef, GlobalRef)):
                    replacement = Mov(instr.dest, folded)
                    rewritten = True
            elif cls is Branch and isinstance(instr.cond, Imm):
                target = instr.then_target if instr.cond.value else instr.else_target
                replacement = Jump(target)
                rewritten = True
            elif cls is ICall and isinstance(instr.func, FuncRef):
                # Devirtualization: a constant code pointer reached the
                # function position (Section 3.1's staged optimization).
                replacement = instr.to_direct()
                rewritten = True

            # Track state forward within the block for subsequent instrs.
            _transfer((replacement,), state)
            new_instrs.append(replacement)
        block.instrs = new_instrs
    return rewritten
