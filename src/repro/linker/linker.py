"""Link step: assemble modules into a program image and resolve symbols."""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..ir.instructions import Call
from ..ir.module import Module
from ..ir.program import RUNTIME_BUILTINS, Program
from ..ir.values import FuncRef


class LinkError(Exception):
    """Unresolved or inconsistent symbols at link time."""


def link_modules(modules: Iterable[Module], entry: str = "main") -> Program:
    """Build a :class:`Program` and check symbol resolution.

    Every extern a module references must resolve to a definition in
    some module or to a runtime builtin; the entry procedure must exist
    and be externally visible.  An undefined extern that nothing in its
    module references is a leftover declaration and is skipped: HLO
    deletes a procedure once every call site absorbed it, while sibling
    modules still declare it.
    """
    program = Program(list(modules))
    errors: List[str] = []

    for mod in program.modules.values():
        referenced: Optional[Set[str]] = None
        for name, sig in mod.externs.items():
            target = program.proc(name)
            if target is None:
                if name in RUNTIME_BUILTINS:
                    continue
                if referenced is None:
                    referenced = _referenced_symbols(mod)
                if name in referenced:
                    errors.append(
                        "undefined symbol @{} referenced by module {}".format(
                            name, mod.name
                        )
                    )
                continue
            if target.signature() != sig:
                errors.append(
                    "signature mismatch for @{}: {} (in {}) vs {} (defined in {})".format(
                        name, sig, mod.name, target.signature(), target.module
                    )
                )

    entry_proc = program.proc(entry)
    if entry_proc is None:
        errors.append("undefined entry point @{}".format(entry))
    elif entry_proc.linkage == "static":
        errors.append("entry point @{} has static linkage".format(entry))

    if errors:
        raise LinkError("; ".join(errors))
    return program


def _referenced_symbols(mod: Module) -> Set[str]:
    """Procedure names ``mod``'s code refers to: direct callees and code
    pointers.  Global initializers hold plain words and name nothing."""
    names: Set[str] = set()
    for proc in mod.procs.values():
        for instr in proc.instructions():
            if isinstance(instr, Call):
                names.add(instr.callee)
            for op in instr.uses():
                if isinstance(op, FuncRef):
                    names.add(op.name)
    return names
