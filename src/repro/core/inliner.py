"""The inlining pass (Figure 4 of the paper).

Screen every direct call site, rank the viable ones by run-time figure
of merit, greedily accept sites into a *schedule* while the staged
budget holds (cost of an inline is evaluated against the projected
sizes implied by everything already scheduled, which models the
paper's cascaded-cost adjustment), then perform the schedule bottom-up
over the call graph so that a callee's own accepted inlines land before
its body is copied upward.  Finally the transformed routines are
re-optimized and the budget recalibrated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.callgraph import CallSite
from ..analysis.manager import AnalysisManager
from ..ir.basicblock import BasicBlock
from ..ir.instructions import Jump
from ..ir.procedure import Procedure
from ..ir.program import Program
from ..obs import NULL_OBSERVER
from .benefit import RankedSite, rank_site
from .budget import Budget
from .config import HLOConfig
from .legality import inline_blocker
from .report import HLOReport
from .stage import Stage
from .transplant import (
    BlockSnapshot,
    splice_body,
    subtract_moved_counts,
    transfer_ratio,
)

# Instructions of glue added per inline beyond the callee body: one
# parameter-binding move per argument plus the landing/continue jumps.
GLUE_PER_ARG = 1
GLUE_FIXED = 2


class ScheduledInline:
    __slots__ = ("ranked", "caller", "callee", "site_id")

    def __init__(self, ranked: RankedSite):
        self.ranked = ranked
        self.caller = ranked.site.caller.name
        self.callee = ranked.site.callee.name  # type: ignore[union-attr]
        self.site_id = ranked.site.instr.site_id


def inline_pass(
    program: Program,
    config: HLOConfig,
    budget: Budget,
    report: HLOReport,
    pass_number: int,
    site_counts: Optional[Dict[Tuple[str, int], int]] = None,
    manager: Optional[AnalysisManager] = None,
    obs=NULL_OBSERVER,
) -> int:
    """Run one inline pass; returns the number of inlines performed.

    The call graph, entry counts, and block frequencies come from the
    :class:`~repro.analysis.AnalysisManager`, reused from earlier
    stages when still valid; the pass reports every procedure it
    mutated back to the manager so the caches stay honest.  ``obs`` is
    the observability bundle: every site evaluated here leaves a
    decision on its ledger (and bumps ``report.sites_considered``).
    """
    if manager is None:
        manager = AnalysisManager(program)
    stage = Stage.from_manager(
        program, config, report, obs, pass_number, manager, site_counts
    )
    candidates = screen_inline_sites(stage, stage.graph.sites)

    # Greedy selection against the staged budget, with cascaded costs
    # modelled by replaying the projected schedule.
    base_sizes = {p.name: p.size() for p in program.all_procs()}
    base_cost = sum(s * s for s in base_sizes.values())
    other_cost = budget.current - base_cost  # cost attributed elsewhere (≈0)
    perform_rank = stage.perform_rank
    limit = budget.stage_limit(pass_number)

    schedule: List[ScheduledInline] = []
    for ranked in candidates:
        entry_item = ScheduledInline(ranked)
        schedule.append(entry_item)
        projected_cost = _replay_cost(schedule, base_sizes, perform_rank) + other_cost
        if ranked.always_inline:
            continue  # user directive: exempt from the budget
        if projected_cost > limit:
            schedule.pop()
            stage.record(
                "inline", ranked.site, "rejected", "staged budget exhausted",
                reason_class="budget", benefit=ranked.benefit,
            )

    if not schedule:
        return 0
    performed = perform_inlines(
        stage, [item.ranked for item in schedule],
        "accepted within staged budget", config.stop_after,
    )

    # "optimize inlines and recalibrate"
    stage.reoptimize_touched()
    budget.recalibrate(program)
    if stage.mutated:
        manager.invalidate_procs(stage.mutated)
    return performed


def screen_inline_sites(stage: Stage, sites: Iterable[CallSite]) -> List[RankedSite]:
    """Screen and rank (Figure 4: "screen inline candidates").

    Blocked and below-threshold sites are rejected on the ledger; the
    rest come back in rank order.
    """
    program, config = stage.program, stage.config
    candidates: List[RankedSite] = []
    for site in sites:
        blocker = inline_blocker(
            program, site, config.cross_module, config.inline_recursive,
            config.local_modules,
        )
        if blocker is not None:
            stage.record("inline", site, "rejected", blocker)
            continue
        ranked = rank_site(site, stage.entry, config, stage.counts, stage.freq_cache)
        if ranked.always_inline or ranked.benefit > config.min_inline_benefit:
            candidates.append(ranked)
        else:
            stage.record(
                "inline", site, "rejected", "benefit below threshold",
                reason_class="benefit", benefit=ranked.benefit,
            )
    candidates.sort(key=lambda r: r.sort_key)
    return candidates


def perform_inlines(
    stage: Stage,
    accepted: List[RankedSite],
    reason: str,
    stop_after: Optional[int] = None,
) -> int:
    """Perform the accepted inlines bottom-up; returns how many landed.

    Callees go before callers, so a callee's own accepted inlines land
    before its body is copied upward.  ``reason`` is the ledger text of
    an accepted inline.  Once the report reaches ``stop_after``
    transforms the rest are rejected instead.
    """
    perform_rank = stage.perform_rank
    ordered = sorted(
        accepted,
        key=lambda r: (perform_rank.get(r.site.caller.name, 0), -r.benefit),
    )
    report = stage.report
    performed = 0
    for index, ranked in enumerate(ordered):
        if stop_after is not None and report.transform_count >= stop_after:
            for later in ordered[index:]:
                stage.record(
                    "inline", later.site, "rejected", "stop-after limit reached",
                    reason_class="budget", benefit=later.benefit,
                )
            break
        site = ranked.site
        caller = stage.program.proc(site.caller.name)
        if caller is None:
            stage.record(
                "inline", site, "rejected", "caller deleted before transform",
                reason_class="mechanical",
            )
            continue
        callee = site.callee.name  # type: ignore[union-attr]
        with stage.span(
            "inline:{}<-{}".format(caller.name, callee), site=site.instr.site_id
        ):
            done = perform_inline(
                stage.program, caller, site.instr.site_id, report, stage.number
            )
        if done:
            performed += 1
            stage.record(
                "inline", site, "inlined", reason,
                reason_class="accepted", benefit=ranked.benefit,
            )
            stage.touched.add(caller.name)
            # The callee's profile counts migrate to the inlined copy,
            # so both ends of the site count as mutated.
            stage.mutated.add(caller.name)
            stage.mutated.add(callee)
        else:
            stage.record(
                "inline", site, "rejected", "call site vanished before transform",
                reason_class="mechanical",
            )
    return performed


def _replay_cost(
    schedule: List[ScheduledInline],
    base_sizes: Dict[str, int],
    perform_rank: Dict[str, int],
) -> float:
    """Program cost after performing ``schedule`` bottom-up."""
    ordered = sorted(
        schedule, key=lambda s: (perform_rank.get(s.caller, 0), -s.ranked.benefit)
    )
    projected = dict(base_sizes)
    for item in ordered:
        callee_size = projected.get(item.callee, 0)
        arg_count = len(item.ranked.site.instr.args)
        added = callee_size + arg_count * GLUE_PER_ARG + GLUE_FIXED - 1
        projected[item.caller] = projected.get(item.caller, 0) + max(added, 0)
    return float(sum(s * s for s in projected.values()))


def perform_inline(
    program: Program,
    caller: Procedure,
    site_id: int,
    report: HLOReport,
    pass_number: int,
) -> bool:
    """Inline the direct call with ``site_id`` in ``caller`` (if present)."""
    located = caller.find_call(site_id)
    if located is None:
        return False
    block, index, instr = located
    callee = program.proc(instr.callee)
    if callee is None:
        return False

    # Snapshot before any mutation (a self-recursive inline would
    # otherwise copy a half-edited body).
    snapshot = BlockSnapshot(callee)
    ratio = transfer_ratio(block.profile_count, snapshot.entry_count)

    # Split the calling block around the call.
    cont_label = caller.new_label("cont")
    tail = BasicBlock(cont_label, block.instrs[index + 1:])
    tail.profile_count = block.profile_count
    caller.blocks[cont_label] = tail
    block.instrs = block.instrs[:index]

    caller_module = program.modules[caller.module]
    args = list(instr.args)
    # A varargs callee never reaches here (legality), so arity matches.
    landing = splice_body(
        program,
        caller,
        caller_module,
        snapshot,
        args,
        instr.dest,
        cont_label,
        ratio,
        on_promote=report.record_promotion,
    )
    block.instrs.append(Jump(landing))

    if callee.name != caller.name:
        subtract_moved_counts(callee, ratio)
    if callee.uses_dynamic_alloca:
        # Cannot happen through the legality screen, but keep the
        # invariant locally: dynamic allocas never move between frames.
        raise AssertionError("inlined a dynamic-alloca callee")

    report.record_inline(pass_number, caller.name, callee.name, site_id)
    return True
