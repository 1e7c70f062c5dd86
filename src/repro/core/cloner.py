"""The cloning pass (Figure 3 of the paper).

For every clonable direct call site, intersect what the caller supplies
(the *calling-context descriptor*: constant actual arguments — "in our
current implementation, only caller-supplied constants are considered
interesting") with what the callee can exploit (the *parameter-usage
descriptor*: per-parameter interest weights, with "special emphasis
... on parameter values that reach the function position at an indirect
call site").  A non-empty intersection is a *clone spec*; the cloner
then greedily forms a *clone group* of all compatible sites, estimates
the group's run-time benefit, ranks groups, and creates clones within
the staged budget.  Clones and their specs are recorded in a database
so later passes reuse rather than re-create them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph, CallSite
from ..analysis.freq import context_block_freqs, site_weight
from ..analysis.manager import AnalysisManager
from ..ir.instructions import Branch, Call, ICall
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..ir.values import FuncRef, GlobalRef, Imm, Operand, Reg
from ..obs import NULL_OBSERVER
from ..opt.pass_manager import optimize_proc
from .benefit import cached_block_freqs
from .budget import Budget
from .config import HLOConfig
from .legality import clone_blocker
from .report import HLOReport
from .stage import Stage
from .transplant import copy_into_new_proc, subtract_moved_counts, transfer_ratio

SpecKey = Tuple[str, Tuple[Tuple[int, Tuple], ...]]


def operand_key(op: Operand) -> Tuple:
    """A hashable identity for a constant operand."""
    if isinstance(op, Imm):
        return ("imm", op.type.value, repr(op.value))
    if isinstance(op, FuncRef):
        return ("func", op.name)
    if isinstance(op, GlobalRef):
        return ("glob", op.name)
    raise TypeError("not a constant operand: {!r}".format(op))


def spec_key(callee: str, spec: Dict[int, Operand]) -> SpecKey:
    return (callee, tuple((pos, operand_key(op)) for pos, op in sorted(spec.items())))


class CloneDatabase:
    """Cross-pass record of (clonee, spec) -> clone name (Section 2.3).

    "If a given clone exists in the database then it is simply reused;
    otherwise the clone must be created."

    The database also owns clone *naming*: a name, once allocated, is
    never recycled within an HLO run even if its clone is deleted as
    unreachable.  (Recycling would let a stale (spec -> name) entry
    silently resolve to a newer clone with a different signature.)
    """

    def __init__(self) -> None:
        self._entries: Dict[SpecKey, str] = {}
        self._allocated: set = set()
        self.hits = 0

    def lookup(self, key: SpecKey) -> Optional[str]:
        name = self._entries.get(key)
        if name is not None:
            self.hits += 1
        return name

    def record(self, key: SpecKey, clone_name: str) -> None:
        self._entries[key] = clone_name
        self._allocated.add(clone_name)

    def fresh_name(self, program: Program, base: str) -> str:
        """A clone name unused by the program *and* this run's history."""
        counter = 1
        while True:
            candidate = "{}.c{}".format(base, counter)
            if candidate not in self._allocated and program.proc(candidate) is None:
                self._allocated.add(candidate)
                return candidate
            counter += 1

    def __len__(self) -> int:
        return len(self._entries)

    def mark(self) -> tuple:
        """Checkpoint for stage rollback: a failed clone pass must not
        leave (spec -> name) entries pointing at clones that the IR
        rollback removed."""
        return (dict(self._entries), set(self._allocated), self.hits)

    def rollback_to(self, mark: tuple) -> None:
        entries, allocated, hits = mark
        self._entries = dict(entries)
        self._allocated = set(allocated)
        self.hits = hits


def param_usage_weights(
    proc: Procedure,
    config: HLOConfig,
    freq_cache: Optional[Dict[str, Dict[str, float]]] = None,
    rel: Optional[Dict[str, float]] = None,
) -> List[float]:
    """Interest weight per parameter position (the callee-side analysis).

    Each use of a parameter register is weighed by the profile count of
    its block relative to the routine entry (or the static heuristic
    without data), times a kind multiplier: plain data uses, uses that
    steer control flow, and — weighted highest — parameter values that
    reach the function position of an indirect call.

    ``rel`` overrides the relative block frequencies — the
    context-sensitive path hands in the callee's frequencies *as seen
    from one caller* (:func:`~repro.analysis.freq.context_block_freqs`)
    so a parameter whose uses sit in a loop that only spins for that
    caller is weighed accordingly.
    """
    if rel is None:
        rel = cached_block_freqs(proc, config.use_profile, freq_cache)
    names = {name: i for i, (name, _t) in enumerate(proc.params)}
    weights = [0.0] * len(proc.params)
    if not names:
        return weights

    for label, block in proc.blocks.items():
        block_rel = rel.get(label, 0.0)
        if block_rel <= 0.0:
            block_rel = 0.01  # unexecuted-in-training uses still count a little
        for instr in block.instrs:
            if isinstance(instr, ICall) and isinstance(instr.func, Reg):
                pos = names.get(instr.func.name)
                if pos is not None:
                    weights[pos] += config.indirect_call_bonus * block_rel
            if isinstance(instr, Branch) and isinstance(instr.cond, Reg):
                pos = names.get(instr.cond.name)
                if pos is not None:
                    weights[pos] += config.branch_use_weight * block_rel
            for op in instr.uses():
                if isinstance(op, Reg):
                    pos = names.get(op.name)
                    if pos is not None:
                        weights[pos] += config.plain_use_weight * block_rel
    return weights


def calling_context(instr: Call) -> Dict[int, Operand]:
    """Constant actuals by position — the caller-side descriptor."""
    context: Dict[int, Operand] = {}
    for pos, arg in enumerate(instr.args):
        if isinstance(arg, (Imm, FuncRef, GlobalRef)):
            context[pos] = arg
    return context


def make_clone_spec(
    site: CallSite, usage: List[float]
) -> Dict[int, Operand]:
    """Intersect caller-supplied constants with interesting parameters."""
    context = calling_context(site.instr)  # type: ignore[arg-type]
    return {
        pos: op
        for pos, op in context.items()
        if pos < len(usage) and usage[pos] > 0.0
    }


def context_matches(instr: Call, spec: Dict[int, Operand]) -> bool:
    """Does this site supply the spec's constants at the spec's positions?"""
    for pos, expected in spec.items():
        if pos >= len(instr.args):
            return False
        actual = instr.args[pos]
        if not isinstance(actual, (Imm, FuncRef, GlobalRef)):
            return False
        if operand_key(actual) != operand_key(expected):
            return False
    return True


@dataclass
class CloneGroup:
    callee: Procedure
    spec: Dict[int, Operand]
    sites: List[CallSite]
    benefit: float = 0.0
    deletes_clonee: bool = False

    @property
    def key(self) -> SpecKey:
        return spec_key(self.callee.name, self.spec)


def iter_clone_groups(
    stage: Stage,
    seeds: Iterable[CallSite],
    address_taken: Set[str],
    interior: Optional[Set[Tuple[str, int]]] = None,
    context_counts=None,
) -> Iterator[CloneGroup]:
    """Form clone groups from ``seeds``, lazily and in seed order.

    Every seed iterated here gets exactly one fate: a legality /
    no-context / benefit rejection recorded immediately, or membership
    in a yielded group (whose accept-or-reject decision the consumer
    records).  Members are sought among all callers of the callee in
    ``stage.graph``, limited to the site keys in ``interior`` when one
    is given (a demand region never visits cold callers).  Because the
    generator is lazy, a consumer may transform each group before the
    next seed is screened.

    ``context_counts`` (from a context-sensitive profile database's
    :meth:`~repro.profile.ProfileDatabase.context_view`) sharpens the
    benefit estimate: each member site's value is computed against the
    callee's block frequencies *as observed from that caller* rather
    than the all-callers aggregate, so a hot loop that only spins for
    one caller neither dilutes that caller's benefit nor inflates the
    others'.
    """
    program, config, graph = stage.program, stage.config, stage.graph
    ctx_counts = context_counts if config.use_profile else None
    usage_cache: Dict[str, List[float]] = {}
    ctx_usage_cache: Dict[Tuple[str, str], Optional[List[float]]] = {}

    def member_value(callee: Procedure, member: CallSite, spec, aggregate: float) -> float:
        """The group value as seen from one member's caller."""
        if ctx_counts is None:
            return aggregate
        cache_key = (callee.name, member.caller.name)
        if cache_key not in ctx_usage_cache:
            rel_ctx = context_block_freqs(callee, member.caller.name, ctx_counts)
            ctx_usage_cache[cache_key] = (
                param_usage_weights(callee, config, rel=rel_ctx)
                if rel_ctx is not None
                else None
            )
        ctx_usage = ctx_usage_cache[cache_key]
        if ctx_usage is None:  # no evidence from this caller: use aggregate
            return aggregate
        return sum(ctx_usage[pos] for pos in spec)

    grouped_sites: Set[Tuple[str, int]] = set()
    for site in seeds:
        if site.key in grouped_sites:
            continue
        blocker = clone_blocker(
            program, site, config.cross_module, config.local_modules
        )
        if blocker is not None:
            stage.record("clone", site, "rejected", blocker)
            continue
        callee = site.callee
        assert callee is not None
        usage = usage_cache.get(callee.name)
        if usage is None:
            usage = param_usage_weights(callee, config, stage.freq_cache)
            usage_cache[callee.name] = usage
        spec = make_clone_spec(site, usage)
        if not spec:
            stage.record(
                "clone", site, "rejected",
                "no caller-supplied constant meets an interesting parameter",
                reason_class="benefit",
            )
            continue

        # Greedily absorb every compatible site into the group.
        members = [site]
        if config.clone_groups:
            for other in graph.callers_of(callee.name):
                if other.key == site.key or other.key in grouped_sites:
                    continue
                if interior is not None and other.key not in interior:
                    continue
                if clone_blocker(
                    program, other, config.cross_module, config.local_modules
                ) is not None:
                    continue
                if context_matches(other.instr, spec):  # type: ignore[arg-type]
                    members.append(other)

        value = sum(usage[pos] for pos in spec)
        benefit = sum(
            site_weight(m, stage.entry, stage.counts, config.use_profile)
            * member_value(callee, m, spec, value)
            for m in members
        )
        if benefit <= config.min_clone_benefit:
            # Only the seed: ungrouped members get their own iteration.
            stage.record(
                "clone", site, "rejected", "benefit below threshold",
                reason_class="benefit", benefit=benefit,
            )
            continue

        incoming = graph.callers_of(callee.name)
        member_keys = {m.key for m in members}
        covers_all = all(s.key in member_keys for s in incoming)
        deletes = (
            covers_all
            and callee.name not in address_taken
            and callee.name != "main"
        )
        grouped_sites.update(member_keys)
        yield CloneGroup(callee, spec, members, benefit, deletes)


def _by_benefit(group: CloneGroup) -> Tuple[float, str]:
    return (-group.benefit, group.callee.name)


def build_clone_groups(
    program: Program,
    graph: CallGraph,
    config: HLOConfig,
    site_counts: Optional[Dict[Tuple[str, int], int]],
    manager: Optional[AnalysisManager] = None,
    obs=NULL_OBSERVER,
    report: Optional[HLOReport] = None,
    pass_number: int = 0,
    context_counts=None,
) -> List[CloneGroup]:
    """Every clone group over ``graph``'s sites, best benefit first."""
    if manager is None:
        manager = AnalysisManager(program)
    counts = site_counts if config.use_profile else None
    stage = Stage(program, config, report, obs, pass_number, graph,
                  manager.entry_counts(counts), manager.freq_cache(), counts)
    groups = iter_clone_groups(stage, graph.sites, _address_taken(program),
                               context_counts=context_counts)
    return sorted(groups, key=_by_benefit)


def _address_taken(program: Program) -> Set[str]:
    taken: Set[str] = set()
    for proc in program.all_procs():
        for instr in proc.instructions():
            for op in instr.uses():
                if isinstance(op, FuncRef):
                    taken.add(op.name)
    return taken


def reusable_clone(
    stage: Stage, database: CloneDatabase, group: CloneGroup
) -> Optional[str]:
    """The database's live clone for ``group``, if there is one."""
    if not stage.config.clone_database:
        return None
    clone_name = database.lookup(group.key)
    if clone_name is not None and stage.program.proc(clone_name) is None:
        return None  # the recorded clone has since been deleted
    return clone_name


def materialize_clone(
    stage: Stage,
    database: CloneDatabase,
    group: CloneGroup,
    site_counts: Optional[Dict[Tuple[str, int], int]],
) -> str:
    """Create ``group``'s clone (Figure 3: "create clones"); returns its
    name.  ``site_counts`` measures how much of the clonee's traffic
    moves to the clone."""
    program, callee = stage.program, group.callee
    clone_name = database.fresh_name(program, callee.name)
    ratio = transfer_ratio(_group_traffic(group, site_counts), _entry_count(callee))
    with stage.span("clone:" + clone_name, clonee=callee.name):
        module = program.modules[callee.module]
        clone = copy_into_new_proc(
            program, callee, module, clone_name, group.spec, ratio,
            on_promote=stage.report.record_promotion,
        )
        module.add_proc(clone)
        subtract_moved_counts(callee, ratio)
        # The clonee's counts just migrated into the clone.
        stage.mutated.add(callee.name)
        stage.mutated.add(clone_name)
        stage.report.clones += 1
        if stage.config.clone_database:
            database.record(group.key, clone_name)
        stage.touched.add(clone_name)
        if stage.config.reoptimize:
            # Optimize the clone immediately so the bound constants
            # propagate into its own call sites before the in-clone
            # retarget scan (the recursive pass-through case).
            optimize_proc(program, clone)
    return clone_name


def retarget_members(
    stage: Stage,
    group: CloneGroup,
    clone_name: str,
    stop_after: Optional[int] = None,
) -> int:
    """Point the group's call sites at ``clone_name``; returns how many
    were retargeted.  Once the report reaches ``stop_after`` transforms
    the remaining members are rejected instead."""
    report = stage.report
    replaced = 0
    for index, member in enumerate(group.sites):
        if stop_after is not None and report.transform_count >= stop_after:
            for later in group.sites[index:]:
                stage.record(
                    "clone", later, "rejected", "stop-after limit reached",
                    reason_class="budget", benefit=group.benefit,
                )
            break
        if _retarget_site(member, group.spec, clone_name):
            replaced += 1
            stage.record(
                "clone", member, "cloned", "call site retargeted to clone",
                reason_class="accepted", benefit=group.benefit,
            )
            report.record_clone_replacement(
                stage.number, member.caller.name, clone_name,
                member.instr.site_id, group.callee.name,
            )
            stage.touched.add(member.caller.name)
            stage.mutated.add(member.caller.name)
        else:
            stage.record(
                "clone", member, "rejected",
                "call site changed before retargeting",
                reason_class="mechanical",
            )
    return replaced


def clone_pass(
    program: Program,
    config: HLOConfig,
    budget: Budget,
    report: HLOReport,
    pass_number: int,
    database: CloneDatabase,
    site_counts: Optional[Dict[Tuple[str, int], int]] = None,
    manager: Optional[AnalysisManager] = None,
    obs=NULL_OBSERVER,
    context_counts=None,
) -> int:
    """Run one cloning pass; returns the number of sites retargeted."""
    if manager is None:
        manager = AnalysisManager(program)
    stage = Stage.from_manager(
        program, config, report, obs, pass_number, manager, site_counts
    )
    groups = sorted(
        iter_clone_groups(stage, stage.graph.sites, _address_taken(program),
                          context_counts=context_counts),
        key=_by_benefit,
    )

    # Select within the stage's allotment (Figure 3: "select clones").
    limit = budget.stage_limit(pass_number)
    projected = budget.current
    accepted: List[CloneGroup] = []
    for group in groups:
        exists = config.clone_database and database.lookup(group.key) is not None
        cost = 0.0 if exists else Budget.clone_delta(
            group.callee.size(), group.deletes_clonee
        )
        if projected + cost <= limit:
            accepted.append(group)
            projected += cost
        else:
            for member in group.sites:
                stage.record(
                    "clone", member, "rejected", "staged budget exhausted",
                    reason_class="budget", benefit=group.benefit,
                )
    # Any group not handled in this pass is discarded; it may be
    # recreated and cloned in a later pass (Section 2.3).

    replaced = 0
    for group_index, group in enumerate(accepted):
        if config.stop_after is not None and report.transform_count >= config.stop_after:
            for later in accepted[group_index:]:
                for member in later.sites:
                    stage.record(
                        "clone", member, "rejected", "stop-after limit reached",
                        reason_class="budget", benefit=later.benefit,
                    )
            break
        clone_name = reusable_clone(stage, database, group) or materialize_clone(
            stage, database, group, site_counts
        )
        replaced += retarget_members(stage, group, clone_name, config.stop_after)

        # The clone body may itself contain group-compatible recursive
        # sites (copied from the clonee); retarget those too so a fully
        # covered clonee really does become unreachable.
        clone = program.proc(clone_name)
        if clone is not None:
            for block, index, instr in clone.call_sites():
                if (
                    isinstance(instr, Call)
                    and instr.callee == group.callee.name
                    and context_matches(instr, group.spec)
                ):
                    instr = block.instrs[index] = _retargeted(
                        instr, group.spec, clone_name
                    )
                    replaced += 1
                    stage.mutated.add(clone_name)
                    report.record_clone_replacement(
                        pass_number, clone_name, clone_name, instr.site_id, group.callee.name
                    )
                    # Not a graph site (it was born with the clone this
                    # pass), but it is an evaluation with an outcome.
                    report.sites_considered += 1
                    if obs.ledger.enabled:
                        obs.ledger.record(
                            "clone", pass_number, clone_name, clone_name,
                            instr.site_id, "cloned",
                            "recursive site inside clone retargeted",
                            "accepted", group.benefit,
                        )

    stage.reoptimize_touched()
    budget.recalibrate(program)
    if stage.mutated:
        manager.invalidate_procs(stage.mutated)
    return replaced


def _retargeted(instr: Call, spec: Dict[int, Operand], clone_name: str) -> Call:
    """A new call to the clone with the specialized actuals edited out."""
    return instr.with_callee(
        clone_name, [a for i, a in enumerate(instr.args) if i not in spec]
    )


def _retarget_site(site: CallSite, spec: Dict[int, Operand], clone_name: str) -> bool:
    """Point one call site at the clone, editing specialized actuals out.

    The site may have been transformed since the graph was built, so
    the live call is found by ``site_id`` (as the inliner does) and must
    still call the clonee with a matching context.  The retargeted call
    replaces it in its block, and ``site.instr`` follows it so later
    reads of the site see the new call.
    """
    if site.callee is None:
        return False
    located = site.caller.find_call(site.instr.site_id)
    if located is None:
        return False
    block, index, instr = located
    if instr.callee != site.callee.name or not context_matches(instr, spec):
        return False
    site.instr = block.instrs[index] = _retargeted(instr, spec, clone_name)
    return True


def _group_traffic(
    group: CloneGroup, site_counts: Optional[Dict[Tuple[str, int], int]]
) -> Optional[int]:
    if site_counts is None:
        return None
    total = 0
    seen = False
    for member in group.sites:
        if member.key in site_counts:
            total += site_counts[member.key]
            seen = True
    return total if seen else None


def _entry_count(proc: Procedure) -> Optional[int]:
    if proc.entry is None:
        return None
    block = proc.blocks.get(proc.entry)
    return block.profile_count if block is not None else None
