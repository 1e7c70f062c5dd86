"""Demand-driven region-based inlining (``strategy="demand"``).

The paper's whole-program loop (Figure 2) walks every call site each
pass, so compile time and peak memory scale with *program* size.
Way & Pollock's region-based formulation inverts that: form hot
regions from the profile, inline only what each region demands, and
bound work by region size.  The transforms themselves are the global
strategy's: both strategies call the same helpers —
:func:`~.cloner.iter_clone_groups` (screen, spec, group, benefit),
:func:`~.cloner.reusable_clone` / :func:`~.cloner.materialize_clone` /
:func:`~.cloner.retarget_members`, :func:`~.inliner.screen_inline_sites`
and :func:`~.inliner.perform_inlines` — through a
:class:`~.stage.Stage` tagged with the region.  This module keeps only
what differs:

- *site set*: :func:`form_regions` seeds regions at the hottest
  procedures (entry count above a fraction of the hottest), marks each
  member's hot blocks, widens the hot set along dominator / loop
  structure (control-equivalent classes and natural-loop bodies), and
  grows the region through its hottest interior call sites until a
  per-region size cap — at most ``region_limit`` regions, so planner
  work is bounded regardless of program size.  A region walks only its
  hot interior, re-enumerated from the live IR after each iteration;
- *budget model*: a :class:`RegionBudget` accepts each clone group as
  it forms and each inline in benefit order, greedily, against the
  region's own allowance (the global passes sort groups by benefit and
  replay a staged schedule against the shared budget);
- *rollback*: a guarded region failure rolls back only that region's
  IR, decisions and analyses.

The global-only behaviours stay in the global passes: ``stop_after``
cut-offs and retargeting recursive sites inside a new clone.  Demand
builds estimate clone benefit from aggregate counts only; a
context-sensitive profile's per-caller counts are not consulted.

Cold procedures are never block-analyzed, ranked, or copied; their
memoized analyses are never invalidated (the manager's
``invalidate_region``).  Every ledger decision carries the region
name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph, CallSite, classify_site
from ..analysis.dominators import control_equivalent_classes
from ..analysis.freq import site_weight
from ..analysis.loops import find_loops
from ..analysis.manager import AnalysisManager
from ..ir.instructions import Call
from ..ir.program import Program
from ..obs import NULL_OBSERVER
from ..opt.pass_manager import default_pipeline
from .benefit import cached_block_freqs
from .budget import Budget
from .cloner import (
    CloneDatabase,
    _address_taken,
    iter_clone_groups,
    materialize_clone,
    retarget_members,
    reusable_clone,
)
from .config import HLOConfig
from .inliner import GLUE_FIXED, GLUE_PER_ARG, perform_inlines, screen_inline_sites
from .report import HLOReport, PassTrace
from .stage import Stage

SiteCounts = Dict[Tuple[str, int], int]


class Region:
    """One profile-hot region: member procedures and their hot sites."""

    __slots__ = ("name", "index", "seed", "procs", "sites", "size", "cost",
                 "cut")

    def __init__(self, index: int, seed: str, cut: float):
        self.index = index
        self.seed = seed
        self.name = "r{}:{}".format(index, seed)
        self.procs: Set[str] = set()
        self.sites: List[CallSite] = []
        self.size = 0
        self.cost = 0.0
        # The absolute heat threshold this region was formed at; reused
        # when the planner re-enumerates hot sites between iterations.
        self.cut = cut

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Region {} procs={} sites={} size={}>".format(
            self.name, len(self.procs), len(self.sites), self.size
        )


class RegionBudget:
    """Per-region compile-cost allowance (region-local Figure 2 budget).

    Seeded with the region's own quadratic cost; transforms charge the
    same :meth:`Budget.inline_delta` / :meth:`Budget.clone_delta`
    statics the global strategy uses, but against the region's
    allowance — growth is bounded by hot-footprint size, not program
    size.
    """

    __slots__ = ("initial", "limit", "current", "ran_out")

    def __init__(self, region_cost: float, percent: float):
        self.initial = region_cost
        self.limit = region_cost + region_cost * percent / 100.0
        self.current = region_cost
        self.ran_out = False

    def fits(self, delta: float) -> bool:
        if self.current + delta <= self.limit:
            return True
        self.ran_out = True
        return False

    def charge(self, delta: float) -> None:
        self.current += delta


# ----------------------------------------------------------------------
# Region formation
# ----------------------------------------------------------------------


def _hot_blocks(proc, cut: float, proc_entry: float, use_profile: bool,
                freq_cache) -> Set[str]:
    """Seed blocks above the heat threshold, widened along structure.

    A block is seed-hot when its absolute heat (procedure entry count
    times relative block frequency) reaches ``cut``.  The seed set is
    then widened along dominator / loop structure: a control-equivalent
    class containing a hot block is wholly hot (its blocks execute
    together), and a natural loop whose header is hot pulls in its
    whole body.
    """
    rel = cached_block_freqs(proc, use_profile, freq_cache)
    hot = {label for label, freq in rel.items() if proc_entry * freq >= cut}
    if not hot:
        return hot
    for cls in control_equivalent_classes(proc):
        if any(label in hot for label in cls):
            hot.update(cls)
    for loop in find_loops(proc):
        if loop.header in hot:
            hot.update(loop.body)
    return hot


def _proc_heat(
    entry: Dict[str, float],
    graph: CallGraph,
    counts: Optional[SiteCounts],
) -> Dict[str, float]:
    """Absolute heat per procedure, for seeding.

    Entry count alone misses the canonical hot shape: ``main`` enters
    once but spins the program's hottest loop.  With measured counts,
    a caller is at least as hot as its hottest call site (the site ran
    inside the caller), which lifts loop-driving callers to the heat of
    the loops they drive — without block-analyzing anything.
    """
    heat = dict(entry)
    if counts:
        for site in graph.sites:
            measured = counts.get(site.key)
            if measured and measured > heat.get(site.caller.name, 0.0):
                heat[site.caller.name] = float(measured)
    return heat


def form_regions(
    program: Program,
    config: HLOConfig,
    graph: CallGraph,
    entry: Dict[str, float],
    freq_cache,
    counts: Optional[SiteCounts],
) -> List[Region]:
    """Form disjoint hot regions, hottest seed first.

    Only procedures that become region members are ever block-analyzed;
    cold code contributes nothing but its (already computed) entry
    count.  Each procedure joins at most one region; a seed whose hot
    interior contains no call sites forms no region (it demands
    nothing).
    """
    heat = _proc_heat(entry, graph, counts)
    max_heat = max(heat.values(), default=0.0)
    if max_heat <= 0.0:
        return []
    cut = max_heat * config.region_hot_fraction

    hot_procs = sorted(
        (name for name, value in heat.items()
         if value > 0.0 and value >= cut and program.proc(name) is not None),
        key=lambda name: (-heat[name], name),
    )

    def hot_sites_of(name: str) -> List[CallSite]:
        proc = program.proc(name)
        hot = _hot_blocks(proc, cut, entry.get(name, 0.0), config.use_profile,
                          freq_cache)
        return [s for s in graph.sites_in(name) if s.block.label in hot]

    regions: List[Region] = []
    assigned: Set[str] = set()
    for seed in hot_procs:
        if seed in assigned:
            continue
        if config.region_limit and len(regions) >= config.region_limit:
            break
        region = Region(len(regions), seed, cut)
        region.procs.add(seed)
        assigned.add(seed)
        region.size = program.proc(seed).size()
        region.sites = hot_sites_of(seed)

        # Grow through the hottest interior sites: pulling a hot callee
        # into the region exposes *its* hot sites as further demand.
        frontier = [s for s in region.sites if s.callee is not None]
        while frontier:
            frontier.sort(key=lambda s: (
                -site_weight(s, entry, counts, config.use_profile),
                s.caller.name, s.instr.site_id,
            ))
            site = frontier.pop(0)
            callee = site.callee
            if callee is None or callee.name in assigned:
                continue
            if region.size + callee.size() > config.region_size_cap:
                continue
            region.procs.add(callee.name)
            assigned.add(callee.name)
            region.size += callee.size()
            new_sites = hot_sites_of(callee.name)
            region.sites.extend(new_sites)
            frontier.extend(s for s in new_sites if s.callee is not None)

        if not region.sites:
            # A siteless region demands nothing; release its members so
            # a later (caller-side) region can claim them — otherwise a
            # hot leaf would fragment its caller's region.
            assigned.difference_update(region.procs)
            continue
        region.cost = float(sum(
            program.proc(name).size() ** 2 for name in region.procs
        ))
        region.index = len(regions)
        region.name = "r{}:{}".format(region.index, seed)
        regions.append(region)
    return regions


# ----------------------------------------------------------------------
# The demand planner
# ----------------------------------------------------------------------


def _current_callee(program: Program, site: CallSite):
    """The procedure this site calls *now* (it may have been retargeted
    to a clone since the plan-time graph was built)."""
    if not isinstance(site.instr, Call):
        return site.callee
    name = site.instr.callee
    if site.callee is not None and site.callee.name == name:
        return site.callee
    return program.proc(name)


def _refresh_site(program: Program, site: CallSite) -> CallSite:
    """A copy of ``site`` whose callee reflects the current instruction."""
    callee = _current_callee(program, site)
    if callee is site.callee:
        return site
    return CallSite(site.caller, site.block, site.index, site.instr,
                    callee, site.category)


def _live_region_sites(stage: Stage, region: Region) -> List[CallSite]:
    """Re-enumerate the region's hot interior from the *current* IR.

    After an iteration transforms, the plan-time site list is stale:
    inlined bodies brought new call sites into members, retargets moved
    edges, and migrated profile counts shifted which blocks are hot.
    Work stays region-bounded — only member procedures are walked.
    """
    program = stage.program
    sites: List[CallSite] = []
    for name in sorted(region.procs):
        proc = program.proc(name)
        if proc is None:
            continue
        hot = _hot_blocks(proc, region.cut, stage.entry.get(name, 0.0),
                          stage.config.use_profile, stage.freq_cache)
        for block, index, instr in proc.call_sites():
            if block.label not in hot:
                continue
            callee = None
            if isinstance(instr, Call):
                callee = program.proc(instr.callee)
            sites.append(CallSite(
                proc, block, index, instr, callee,
                classify_site(proc, instr, callee),
            ))
    return sites


def demand_stage(
    program: Program,
    config: HLOConfig,
    budget: Budget,
    report: HLOReport,
    database: CloneDatabase,
    site_counts: Optional[SiteCounts] = None,
    manager: Optional[AnalysisManager] = None,
    obs=NULL_OBSERVER,
    guard=None,
    pipeline=None,
) -> int:
    """Form regions and optimize each under its own budget.

    Runs in place of the global clone/inline loop.  Each region is one
    guarded unit: a failing region rolls back its own IR, report
    counters, clone-database entries, ledger decisions (by mark *and*
    by region tag), and analyses — the rest of the program's memo pool
    stays warm (``AnalysisManager.invalidate_region``).  Returns the
    number of transforms performed.
    """
    if manager is None:
        manager = AnalysisManager(program)
    plan = Stage.from_manager(program, config, report, obs, 0, manager, site_counts)
    freq_cache = plan.freq_cache
    regions = form_regions(program, config, plan.graph, plan.entry, freq_cache,
                           plan.counts)
    report.regions_formed = len(regions)
    address_taken = _address_taken(program)

    performed_total = 0
    all_mutated: Set[str] = set()
    # One whole-program size table, kept current as regions commit, so
    # the shared budget can be charged incrementally: recomputing the
    # program cost per region is O(program x regions) and dominates
    # compile wall on mega-programs.  A region can mutate procs outside
    # its membership (inlining subtracts moved counts from the callee),
    # so the table must cover everything, not just region interiors.
    sizes = {proc.name: proc.size() for proc in program.all_procs()}
    for region in regions:
        rbudget = RegionBudget(region.cost, config.region_budget_percent)
        stage = plan.for_region(region.index, region.name)
        cost_before = budget.current

        def run_region(region=region, rbudget=rbudget, stage=stage):
            return _optimize_region(stage, region, rbudget, database,
                                    address_taken)

        if guard is None:
            performed = run_region()
        else:
            report_mark = report.mark()
            db_mark = database.mark()
            ledger_mark = obs.ledger.mark()
            # Shallow snapshot of the frequency memo table: the region
            # loop pops and refills entries mid-run, so on rollback the
            # table must return to exactly its pre-region state (values
            # are never mutated in place, so sharing them is safe).
            freq_mark = dict(freq_cache)
            failures_before = len(guard.failures)
            with obs.tracer.span(
                "demand:{}".format(region.name) if obs.tracer.enabled else "",
                cat="hlo", region=region.name,
            ):
                result = guard.run_region_stage(
                    program, region.procs, "demand", run_region, region.index,
                    "demand", default=None,
                    bisect_pipeline=pipeline or default_pipeline(),
                )
            if len(guard.failures) > failures_before:
                # Region-scoped rollback: the guard restored the IR;
                # unwind only this region's side state.  Frequency
                # memos added during the failed run (clones, procs
                # analyzed post-mutation) describe IR that no longer
                # exists, so they go too; everything cached before the
                # region ran still matches the restored IR.
                report.rollback_to(report_mark)
                database.rollback_to(db_mark)
                obs.ledger.rollback_to(ledger_mark)
                obs.ledger.truncate_region(region.name)
                freq_cache.clear()
                freq_cache.update(freq_mark)
                manager.invalidate_region(region.procs)
                # No budget resync needed: only the *region* budget is
                # charged while a region runs, and the guard restored
                # the IR, so the shared budget still matches the program.
                continue
            performed = result if result is not None else 0

        performed_total += performed
        mutated = stage.mutated
        if mutated:
            all_mutated |= mutated
            # One region's mutation invalidates only its own memos; the
            # rest of the pool stays warm for the remaining regions.
            manager.invalidate_region(mutated)
        if rbudget.ran_out:
            report.region_budget_exhausted += 1
        # Incremental shared-budget accounting: the program-cost delta
        # is exactly the sum of size^2 changes over the mutated procs.
        # Clones start from zero; everything pre-existing is in the
        # table, which is updated here so later regions see committed
        # sizes.
        delta = 0.0
        for name in mutated:
            proc = program.proc(name)
            new_size = proc.size() if proc is not None else 0
            old_size = sizes.get(name, 0)
            delta += float(new_size * new_size) - float(old_size * old_size)
            sizes[name] = new_size
        if delta:
            budget.charge(delta)
        report.pass_traces.append(PassTrace(
            region.index, "demand", performed, cost_before, budget.current,
            rbudget.limit,
        ))

    report.passes_run = 1 if regions else 0
    # The plan-time graph / entry snapshot is now stale wherever the
    # regions transformed; later consumers (unreachable sweep, output
    # stage) need fresh program-level analyses.
    if all_mutated:
        manager.invalidate_procs(all_mutated)
    return performed_total


def _optimize_region(
    stage: Stage,
    region: Region,
    rbudget: RegionBudget,
    database: CloneDatabase,
    address_taken: Set[str],
) -> int:
    """Optimize one region to a fixpoint; returns the transform count.

    The procedures it mutated are left in ``stage.mutated``.  Mirrors
    the global loop's clone/inline alternation, but region-scoped: each
    iteration clones then inlines the region's current hot interior,
    re-optimizes what it touched, drops the touched members' frequency
    memos, and re-enumerates — an inlined body's own call sites become
    the next iteration's demand.  Stops after ``config.pass_limit``
    iterations or the first iteration that performs nothing.
    """
    config = stage.config
    performed = 0
    sites = region.sites
    for _iteration in range(max(1, config.pass_limit)):
        round_performed = 0
        if config.enable_cloning:
            round_performed += _clone_region_sites(
                stage, rbudget, sites, database, address_taken
            )
        if config.enable_inlining:
            round_performed += _inline_region_sites(stage, region, rbudget, sites)
        stage.reoptimize_touched()
        performed += round_performed
        if round_performed == 0:
            break
        # Transformed members (and callees whose counts migrated) have
        # stale frequency memos; drop just those before re-enumerating.
        for name in stage.mutated:
            stage.freq_cache.pop(name, None)
        sites = _live_region_sites(stage, region)
    return performed


def _clone_region_sites(
    stage: Stage,
    rbudget: RegionBudget,
    sites: List[CallSite],
    database: CloneDatabase,
    address_taken: Set[str],
) -> int:
    """Clone groups seeded and joined only by region-interior sites,
    each accepted greedily against the region budget as it forms.

    A cold caller of the same callee is never visited, so
    ``deletes_clonee`` (checked against the *real* incoming edge set)
    is simply rarer here than in the global cloner.
    """
    interior = {s.key for s in sites}
    replaced = 0
    for group in iter_clone_groups(stage, sites, address_taken, interior):
        clone_name = reusable_clone(stage, database, group)
        cost = 0.0 if clone_name is not None else Budget.clone_delta(
            group.callee.size(), group.deletes_clonee
        )
        if not rbudget.fits(cost):
            for member in group.sites:
                stage.record(
                    "clone", member, "rejected", "region budget exhausted",
                    reason_class="budget", benefit=group.benefit,
                )
            continue
        if clone_name is None:
            clone_name = materialize_clone(stage, database, group, stage.counts)
            rbudget.charge(cost)
        replaced += retarget_members(stage, group, clone_name)
    return replaced


def _inline_region_sites(
    stage: Stage,
    region: Region,
    rbudget: RegionBudget,
    sites: List[CallSite],
) -> int:
    """Inline hot region sites accepted greedily, in benefit order,
    against the region budget.

    Uses the same per-transform delta model as the global schedule
    (``Budget.inline_delta`` over projected member sizes).
    """
    program = stage.program
    candidates = screen_inline_sites(
        stage, (_refresh_site(program, site) for site in sites)
    )

    projected: Dict[str, int] = {}
    for name in region.procs:
        proc = program.proc(name)
        if proc is not None:
            projected[name] = proc.size()

    accepted = []
    for ranked in candidates:
        caller = ranked.site.caller.name
        callee = ranked.site.callee.name  # type: ignore[union-attr]
        caller_size = projected.get(caller, ranked.site.caller.size())
        callee_size = projected.get(
            callee, ranked.site.callee.size()  # type: ignore[union-attr]
        )
        glue = len(ranked.site.instr.args) * GLUE_PER_ARG + GLUE_FIXED - 1
        delta = Budget.inline_delta(caller_size, callee_size + glue)
        if ranked.always_inline or rbudget.fits(delta):
            accepted.append(ranked)
            if not ranked.always_inline:
                rbudget.charge(delta)
            projected[caller] = caller_size + callee_size + glue
        else:
            stage.record(
                "inline", ranked.site, "rejected", "region budget exhausted",
                reason_class="budget", benefit=ranked.benefit,
            )

    if not accepted:
        return 0
    return perform_inlines(stage, accepted, "accepted within region budget")
