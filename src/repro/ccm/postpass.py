"""The post-pass CCM allocator (paper section 3.1, Figure 1).

Runs after traditional register allocation on fully allocated, scheduled
code; discovers the spill webs, analyzes their liveness and
interference, and redirects a safe, profitable subset into the
size-limited CCM.  Webs that do not fit stay as heavyweight stack
spills — "conservative, but safe."

Two variants, both from the paper:

* **intraprocedural** — no interprocedural information; only webs not
  live across *any* call are eligible, so a web can never be resident in
  the CCM while another procedure runs.
* **interprocedural** — a bottom-up walk over the call graph.  Each
  processed procedure records its CCM high-water mark; a caller may
  place a web that is live across a call to ``q`` only above ``q``'s
  high-water mark.  Procedures in call-graph cycles are conservatively
  marked as using the entire CCM (their callers can promote nothing
  across calls into the cycle), though their own not-live-across-call
  webs remain safely promotable.

Costs are the paper's static 10^loop-depth estimate.  Placement is a
decision over the web analysis (:func:`decide_postpass`, no IR writes),
applied by :func:`rewrite_postpass`; :func:`promote_spills_postpass`
analyzes, decides and rewrites in turn.  One analysis of an allocated
program serves every decision placed from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from ..analysis import AnalysisManager, CallGraph
from ..ir import Function, Program, TO_CCM
from ..machine import MachineConfig
from ..trace import trace_counter, trace_span
from .assign import assign_webs
from .mem_liveness import WebInterference, analyze_webs
from .slots import SpillWeb, find_spill_webs


@dataclass
class FunctionPromotion:
    """What promotion did to one function."""

    fn_name: str
    n_webs: int = 0
    promoted: List[SpillWeb] = field(default_factory=list)
    heavyweight: List[SpillWeb] = field(default_factory=list)
    offsets: Dict[int, int] = field(default_factory=dict)
    #: the function's *own* CCM occupancy: highest placed byte, exactly
    #: :attr:`ccm_bytes_used`.  Never conflated with the conservative
    #: recursion mark — a cycle member with two promoted webs reports
    #: its real (small) occupancy here.
    high_water: int = 0
    recursive: bool = False
    #: what callers see in the bottom-up walk: ``max(own, nested)`` for
    #: acyclic functions, the whole CCM for members of call-graph
    #: cycles.  ``reported_high_water == ccm_bytes`` with ``recursive``
    #: set means "conservatively marked full", which aggregated tables
    #: must report distinctly from a procedure that genuinely filled
    #: the CCM with its own webs.
    reported_high_water: int = 0

    @property
    def ccm_bytes_used(self) -> int:
        if not self.offsets:
            return 0
        by_id = {w.web_id: w for w in self.promoted}
        return max(off + by_id[wid].size for wid, off in self.offsets.items())

    @property
    def conservatively_full(self) -> bool:
        """True when the reported mark is the recursion fallback, not a
        measurement of this function's own promoted webs."""
        return self.recursive and self.reported_high_water > self.high_water


@dataclass
class PromotionReport:
    """Program-level summary of a post-pass promotion run."""

    interprocedural: bool
    ccm_bytes: int
    functions: Dict[str, FunctionPromotion] = field(default_factory=dict)

    @property
    def total_promoted(self) -> int:
        return sum(len(f.promoted) for f in self.functions.values())

    @property
    def total_heavyweight(self) -> int:
        return sum(len(f.heavyweight) for f in self.functions.values())

    @property
    def conservatively_full(self) -> List[str]:
        """Cycle members whose reported mark is the recursion fallback."""
        return [name for name, f in self.functions.items()
                if f.conservatively_full]

    @property
    def genuinely_full(self) -> List[str]:
        """Functions whose *own* promoted webs reach a non-zero CCM
        limit (with no CCM, nothing is full)."""
        return [name for name, f in self.functions.items()
                if self.ccm_bytes and f.high_water >= self.ccm_bytes]


def analyze_spill_webs(fn: Function) -> WebInterference:
    """The CCM-size-independent half of promotion: the function's spill
    webs (``.webs``) with their liveness, interference, call crossings
    and static costs.

    Placement only reads the result, and a web's sites are (label,
    index) pairs, so one analysis of an allocated function serves
    :func:`decide_function` at any CCM size, rewritten into any clone
    of it.
    """
    manager = AnalysisManager(fn)
    return analyze_webs(fn, find_spill_webs(fn, manager=manager),
                        manager=manager)


def promote_function(fn: Function, ccm_bytes: int,
                     callee_high_water: Optional[Dict[str, int]] = None
                     ) -> FunctionPromotion:
    """Promote one function's spill webs into a CCM of ``ccm_bytes``:
    :func:`analyze_spill_webs`, :func:`decide_function`, then the
    rewrite of its promoted webs — one step of the bottom-up walk, for
    callers that compile a routine at a time
    (:mod:`repro.exec.wholeprog`).

    ``callee_high_water`` maps callee names to their CCM usage; None
    selects the intraprocedural rule (nothing live across calls is
    promoted).
    """
    with trace_span("ccm.promote", fn=fn.name):
        result = decide_function(fn.name, analyze_spill_webs(fn),
                                 ccm_bytes, callee_high_water)
        _rewrite_promoted(fn, result)
    _count_promotions([result])
    return result


def _count_promotions(promotions: Iterable[FunctionPromotion]) -> None:
    """The ``ccm.*`` trace counters of rewritten promotions."""
    for promotion in promotions:
        trace_counter("ccm.webs", promotion.n_webs)
        trace_counter("ccm.promoted", len(promotion.promoted))
        trace_counter("ccm.heavyweight", len(promotion.heavyweight))
        trace_counter("ccm.bytes_used", promotion.ccm_bytes_used)
        # the stack bytes the promoted webs vacate — Table 1's
        # "savings" angle on Table 3's occupancy
        trace_counter("ccm.bytes_saved",
                      sum(web.size for web in promotion.promoted))


def decide_function(fn_name: str, interference: WebInterference,
                    ccm_bytes: int,
                    callee_high_water: Optional[Dict[str, int]]
                    ) -> FunctionPromotion:
    """The size-dependent half of promotion, as a decision: eligibility
    and first-fit placement of the analyzed webs.  Reads only the
    analysis and the callee marks; writes no IR."""
    webs = interference.webs
    result = FunctionPromotion(fn_name, n_webs=len(webs))
    if not webs:
        return result

    eligible: List[SpillWeb] = []
    min_start: Dict[int, int] = {}
    for web in webs:
        if web.upward_exposed or not web.stores or not web.loads:
            result.heavyweight.append(web)
            continue
        if web.web_id not in interference.live_across_call:
            eligible.append(web)
            min_start[web.web_id] = 0
            continue
        if callee_high_water is None:
            result.heavyweight.append(web)  # intraprocedural rule
            continue
        # interprocedural: start above the high-water mark of every
        # callee the web is live across
        start = 0
        feasible = True
        for _, (callee, live_ids) in interference.calls_crossed.items():
            if web.web_id in live_ids:
                hw = callee_high_water.get(callee, ccm_bytes)
                start = max(start, hw)
                if start >= ccm_bytes:
                    feasible = False
                    break
        if not feasible:
            result.heavyweight.append(web)
            continue
        eligible.append(web)
        min_start[web.web_id] = start

    placement = assign_webs(eligible, interference, ccm_bytes, min_start)
    placed_ids = set(placement)
    for web in eligible:
        if web.web_id in placed_ids:
            result.promoted.append(web)
        else:
            result.heavyweight.append(web)
    result.offsets = placement
    result.high_water = result.ccm_bytes_used
    return result


def _rewrite_promoted(fn: Function, promotion: FunctionPromotion) -> None:
    """Redirect the promoted webs' spill instructions into the CCM (the
    decision's sites index ``fn`` or the program it was cloned from)."""
    for web in promotion.promoted:
        offset = promotion.offsets[web.web_id]
        for label, idx in web.sites:
            instr = fn.block(label).instructions[idx]
            instr.opcode = TO_CCM[instr.opcode]
            instr.imm = offset


def decide_postpass(program: Program, analyses: Dict[str, WebInterference],
                    ccm_bytes: int, interprocedural: bool) -> PromotionReport:
    """The post-pass allocator's whole-program decision (Figure 1),
    from each function's :func:`analyze_spill_webs` result; reads
    ``program`` only for its functions and call graph.

    Functions are placed in program order under the intraprocedural
    rule, else bottom-up over the call graph, each callee's mark
    reported to its callers.  Each :class:`FunctionPromotion` carries
    the function's ``reported_high_water`` — the ``ccm_high_water``
    the rewrite (:func:`rewrite_postpass`) stores."""
    report = PromotionReport(interprocedural, ccm_bytes)
    if not interprocedural:
        for name in program.functions:
            promotion = decide_function(name, analyses[name], ccm_bytes,
                                        None)
            promotion.reported_high_water = promotion.high_water
            report.functions[name] = promotion
        return report

    graph = CallGraph(program)
    recursive = graph.recursive_functions()
    high_water: Dict[str, int] = {}
    for name in graph.bottom_up_order():
        promotion = decide_function(name, analyses[name], ccm_bytes,
                                    high_water)
        promotion.recursive = name in recursive
        report.functions[name] = promotion
        own = promotion.high_water
        nested = max((high_water.get(callee, ccm_bytes)
                      for callee in graph.callees[name]), default=0)
        if name in recursive:
            # conservative: a cycle is marked as using the full CCM
            high_water[name] = ccm_bytes
        else:
            high_water[name] = max(own, nested)
        promotion.reported_high_water = high_water[name]
    return report


def rewrite_postpass(program: Program, report: PromotionReport) -> None:
    """Apply a :func:`decide_postpass` decision to ``program`` (the
    analyzed program or a clone of it): the promoted spill code and
    each function's ``ccm_high_water``."""
    for name, promotion in report.functions.items():
        fn = program.functions[name]
        _rewrite_promoted(fn, promotion)
        fn.ccm_high_water = promotion.reported_high_water


def stacked_analyses(analyses: Dict[str, WebInterference],
                     report: Optional[PromotionReport] = None
                     ) -> Dict[str, WebInterference]:
    """Each function's analysis narrowed to the webs ``report``'s
    rewrite leaves on the stack (all of them without a report): what
    compaction re-colors.  A promotion only takes webs off the stack;
    the rest keep their sites, offsets and interference."""
    promoted = ({name: promotion.offsets
                 for name, promotion in report.functions.items()}
                if report is not None else {})
    return {name: replace(analysis, webs=[
                web for web in analysis.webs
                if web.web_id not in promoted.get(name, ())])
            for name, analysis in analyses.items()}


def promote_spills_postpass(program: Program, machine: MachineConfig,
                            interprocedural: bool = False
                            ) -> PromotionReport:
    """Run the post-pass CCM allocator over a whole program (Figure 1):
    :func:`analyze_spill_webs` of every function, the
    :func:`decide_postpass` decision, and its :func:`rewrite_postpass`
    — the difftest lattice's path, which shares the analyses and
    decisions across its configs."""
    with trace_span("ccm.promote", interprocedural=interprocedural):
        analyses = {name: analyze_spill_webs(fn)
                    for name, fn in program.functions.items()}
        report = decide_postpass(program, analyses, machine.ccm_bytes,
                                 interprocedural)
        rewrite_postpass(program, report)
    _count_promotions(report.functions.values())
    return report
