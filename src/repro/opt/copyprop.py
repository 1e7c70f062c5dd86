"""Copy propagation.

Two flavours, both sound in this non-SSA IR without dominance queries:

- **Single-definition forwarding**: when register ``b`` is defined by
  exactly one instruction ``b = mov a`` and ``a`` is itself defined
  exactly once (or is a parameter that is never redefined), every
  dynamic use of ``b`` must follow its unique definition, which follows
  the unique definition of ``a`` — so uses of ``b`` can read ``a``
  directly.  This is the pattern inlining produces in bulk (parameter-
  binding movs at the inlined entry).
- **Local forwarding**: within one block, a ``mov`` destination can be
  forwarded until either side is redefined.
"""

from __future__ import annotations

from typing import Dict

from ..ir.instructions import Mov
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import Operand, Reg


def _definition_counts(proc: Procedure) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for instr in proc.instructions():
        if instr.dest is not None:
            counts[instr.dest.name] = counts.get(instr.dest.name, 0) + 1
    return counts


def copy_propagation(program: Program, proc: Procedure) -> bool:
    changed = False
    def_counts = _definition_counts(proc)
    params = {name for name, _ in proc.params}

    # Parameters with no redefinition behave like single-def registers.
    def stable(reg: Reg) -> bool:
        if reg.name in params:
            return def_counts.get(reg.name, 0) == 0
        return def_counts.get(reg.name, 0) == 1

    # Pass 1: single-definition forwarding across the whole procedure.
    forward: Dict[str, Reg] = {}
    for instr in proc.instructions():
        if (
            isinstance(instr, Mov)
            and isinstance(instr.src, Reg)
            and instr.dest is not None
            and def_counts.get(instr.dest.name, 0) == 1
            and stable(instr.src)
            and instr.dest.name not in params
        ):
            forward[instr.dest.name] = instr.src

    # Resolve chains a <- b <- c to their root.
    def root(reg: Reg, depth: int = 0) -> Reg:
        while reg.name in forward and depth < 64:
            reg = forward[reg.name]
            depth += 1
        return reg

    # Placed instructions are never edited: a rewritten one replaces
    # the original in its block's list.
    if forward:
        def subst(op: Operand) -> Operand:
            nonlocal changed
            if isinstance(op, Reg) and op.name in forward:
                changed = True
                return root(op)
            return op

        for block in proc.blocks.values():
            instrs = block.instrs
            for index, instr in enumerate(instrs):
                instrs[index] = instr.with_operands(subst)

    # Pass 2: local forwarding within each block.
    available: Dict[str, Operand] = {}

    def subst_local(op: Operand) -> Operand:
        nonlocal changed
        if isinstance(op, Reg) and op.name in available:
            changed = True
            return available[op.name]
        return op

    for block in proc.blocks.values():
        available = {}
        instrs = block.instrs
        for index, instr in enumerate(instrs):
            instrs[index] = instr = instr.with_operands(subst_local)
            if instr.dest is not None:
                dest = instr.dest.name
                # Redefinition kills copies in both directions.
                available.pop(dest, None)
                for key in [k for k, v in available.items() if isinstance(v, Reg) and v.name == dest]:
                    del available[key]
                if isinstance(instr, Mov):
                    src = instr.src
                    if not (isinstance(src, Reg) and src.name == dest):
                        available[dest] = src
    return changed
