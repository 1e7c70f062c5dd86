"""State shared by one walk of the clone and inline transforms.

A *stage* is a global clone or inline pass, or one demand region.
Both strategies hand the transform helpers in :mod:`.cloner` and
:mod:`.inliner` a :class:`Stage`: the analyses the walk reads, where
its decisions are recorded (pass number and region tag on the ledger
and report), and the procedures it touched and mutated.  Which sites a
stage walks and which budget it answers to stay with the strategy.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..ir.program import Program
from ..obs.ledger import record_decision
from ..opt.pass_manager import optimize_proc
from .config import HLOConfig

SiteCounts = Dict[Tuple[str, int], int]


class Stage:
    """One pass's (or one region's) view of the program."""

    def __init__(
        self,
        program: Program,
        config: HLOConfig,
        report,
        obs,
        number: int,
        graph: CallGraph,
        entry: Dict[str, float],
        freq_cache: Dict[str, Dict[str, float]],
        counts: Optional[SiteCounts],
        region: str = "",
    ):
        self.program = program
        self.config = config
        self.report = report
        self.obs = obs
        self.number = number  # pass number, or region index
        self.graph = graph
        self.entry = entry
        self.freq_cache = freq_cache
        self.counts = counts  # measured site counts, when the profile is used
        self.region = region
        # Procedures to re-optimize, and procedures whose analyses the
        # stage made stale (callers edited, clonees whose counts moved,
        # new clones).
        self.touched: Set[str] = set()
        self.mutated: Set[str] = set()
        self._perform_rank: Optional[Dict[str, int]] = None

    @classmethod
    def from_manager(cls, program, config, report, obs, number, manager,
                     site_counts) -> "Stage":
        counts = site_counts if config.use_profile else None
        graph = manager.callgraph()
        return cls(program, config, report, obs, number, graph,
                   manager.entry_counts(counts), manager.freq_cache(), counts)

    def for_region(self, number: int, region: str) -> "Stage":
        """The same analyses, recorded under one region's index and tag."""
        return Stage(self.program, self.config, self.report, self.obs, number,
                     self.graph, self.entry, self.freq_cache, self.counts,
                     region)

    @property
    def perform_rank(self) -> Dict[str, int]:
        """Bottom-up position of each procedure (callees first)."""
        if self._perform_rank is None:
            self._perform_rank = {
                name: i for i, name in enumerate(self.graph.bottom_up_order())
            }
        return self._perform_rank

    def record(self, phase: str, site, decision: str, reason: str,
               reason_class: Optional[str] = None,
               benefit: Optional[float] = None) -> None:
        record_decision(
            self.obs, self.report, phase, self.number, site, decision, reason,
            reason_class, benefit, self.region,
        )

    def span(self, name: str, **args):
        """A transform span; region stages tag it with their region."""
        if self.region:
            args["region"] = self.region
        return self.obs.tracer.span(name, cat="transform", **args)

    def reoptimize_touched(self) -> None:
        """Figures 3/4's "optimize": re-run the scalar pipeline over
        every procedure touched since the last call."""
        touched, self.touched = self.touched, set()
        if self.config.reoptimize:
            for name in sorted(touched):
                proc = self.program.proc(name)
                if proc is not None:
                    optimize_proc(self.program, proc)
