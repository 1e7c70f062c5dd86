"""Analysis memoization with explicit invalidation.

The HLO driver is a *multi-pass* loop: every clone stage, inline
stage, and unreachable-routine sweep historically rebuilt the program
call graph, re-propagated entry counts, and re-derived per-procedure
block frequencies from scratch — even when the preceding stage changed
nothing (common in late passes, whose budget stages mostly reject).

:class:`AnalysisManager` caches those results and makes invalidation
the *transform's* responsibility: the inliner and cloner report
exactly which procedures they mutated (callers spliced into, clonees
whose counts were migrated, freshly created clones), and only those
entries — plus the program-level analyses, which any mutation can
perturb — are dropped.  A stage that performs zero transforms leaves
every cache warm for the next one.

Correctness contract: a cached result is returned only while the IR it
was derived from is unchanged.  Anything that mutates procedures
outside the inliner/cloner protocol (scalar re-optimization stages,
guarded-pass rollbacks, which may replace procedure *objects*) must
call :meth:`invalidate_all`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..ir.program import Program
from .callgraph import CallGraph
from .freq import entry_counts as _entry_counts

SiteCounts = Dict[Tuple[str, int], int]


class AnalysisManager:
    """Per-HLO-run cache of call graph, entry counts, and block freqs."""

    def __init__(self, program: Program, memoize: bool = True):
        self.program = program
        # Unmemoized, every request recomputes from the current IR (the
        # reference the memoized path is tested against).
        self.memoize = memoize
        self._graph: Optional[CallGraph] = None
        # Keyed by whether measured site counts were applied; within
        # one HLO run the site-count table itself never changes.
        self._entry: Dict[bool, Dict[str, float]] = {}
        # proc name -> relative block frequencies; shared with the
        # passes' ``cached_block_freqs`` helper, which fills it lazily.
        self._freqs: Dict[str, Dict[str, float]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Cached analyses
    # ------------------------------------------------------------------

    def callgraph(self) -> CallGraph:
        if self._graph is None or not self.memoize:
            self.misses += 1
            self._graph = CallGraph(self.program)
        else:
            self.hits += 1
        return self._graph

    def entry_counts(self, site_counts: Optional[SiteCounts]) -> Dict[str, float]:
        key = site_counts is not None
        cached = self._entry.get(key) if self.memoize else None
        if cached is None:
            graph = self.callgraph()
            self.misses += 1
            cached = _entry_counts(self.program, graph, site_counts)
            self._entry[key] = cached
        else:
            self.hits += 1
        return cached

    def freq_cache(self) -> Dict[str, Dict[str, float]]:
        """The shared per-procedure block-frequency memo table.

        Unmemoized, each request starts a fresh table: a pass or stage
        still reuses frequencies within itself, never across stages.
        """
        if not self.memoize:
            self._freqs = {}
        return self._freqs

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate_procs(self, names: Iterable[str]) -> None:
        """IR changed inside ``names``: drop their entries and every
        program-level analysis (any mutation can reshape the graph)."""
        self.invalidations += 1
        self._graph = None
        self._entry.clear()
        for name in names:
            self._freqs.pop(name, None)

    def invalidate_region(self, names: Iterable[str]) -> None:
        """Region-scoped invalidation (the demand strategy's contract).

        Drops only the named procedures' block-frequency memos, leaving
        the rest of the memo pool — and the planner's call-graph /
        entry-count snapshot — warm.  The demand planner treats the
        graph and entry counts as a frozen plan-time view (regions and
        their interior sites were enumerated before any mutation), so
        one region's transforms must not flush analyses the remaining
        regions are about to read.  The planner ends its stage with a
        full :meth:`invalidate_procs` over everything it mutated so
        later consumers (the unreachable sweep, the output stage) see
        fresh program-level state.
        """
        self.invalidations += 1
        for name in names:
            self._freqs.pop(name, None)

    def invalidate_all(self) -> None:
        """Drop everything — the blunt hammer for stages that cannot
        enumerate what they touched (scalar pipelines, rollbacks)."""
        self.invalidations += 1
        self._graph = None
        self._entry.clear()
        self._freqs.clear()
