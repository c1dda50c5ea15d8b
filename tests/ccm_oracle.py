"""Test oracles for the CCM allocators: the plain forms of both schemes.

* The per-size integrated Chaitin-Briggs allocator, the oracle for
  :class:`repro.ccm.CcmPlacementProvider`.  This is the integrated
  scheme exactly as section 3.2 describes it: a Chaitin-Briggs run per
  CCM size whose spill step places each value into the CCM as it goes,
  with CCM locations as pseudo nodes of the interference graph.  The
  shipped allocator allocates once and places per size; the
  equivalence suite holds the two bit-identical.
* The per-function post-pass walk, the oracle for
  :func:`repro.ccm.promote_spills_postpass`, which analyzes every
  function, decides the whole program at once
  (:func:`~repro.ccm.decide_postpass`) and then rewrites it.  The walk
  runs :func:`~repro.ccm.promote_function` on one function at a time —
  in program order under the intraprocedural rule, else bottom-up over
  the call graph — each function rewritten, and its ``ccm_high_water``
  set, before the next is placed.  It shares the per-function decision
  with the shipped path, not the walk, the callee marks or the rewrite.
"""

from typing import Dict

from repro.analysis import CallGraph
from repro.ccm import (CcmGraphHook, IntegratedCcmSlotProvider,
                       PromotionReport, promote_function)
from repro.ir import Program
from repro.machine import MachineConfig
from repro.regalloc import ChaitinBriggsAllocator


class IntegratedCcmAllocator(ChaitinBriggsAllocator):
    """A Chaitin-Briggs allocator with the CCM plugged in: Figure 2 with
    the emboldened steps implemented by the classic hook and provider."""

    def __init__(self, fn, machine, manager=None, rematerialize=True):
        super().__init__(fn, machine,
                         slot_provider=IntegratedCcmSlotProvider(fn, machine),
                         graph_hook=CcmGraphHook(),
                         rematerialize=rematerialize, manager=manager)


def allocate_integrated_oracle(fn, machine, rematerialize=True):
    """Allocate ``fn`` in place with the per-size oracle."""
    return IntegratedCcmAllocator(fn, machine,
                                  rematerialize=rematerialize).run()


def promote_spills_walk(program: Program, machine: MachineConfig,
                        interprocedural: bool = False) -> PromotionReport:
    """Promote ``program`` in place, one function at a time; returns
    the report :func:`~repro.ccm.promote_spills_postpass` must equal."""
    ccm_bytes = machine.ccm_bytes
    report = PromotionReport(interprocedural, ccm_bytes)
    if not interprocedural:
        for name, fn in program.functions.items():
            promotion = promote_function(fn, ccm_bytes)
            promotion.reported_high_water = promotion.high_water
            fn.ccm_high_water = promotion.high_water
            report.functions[name] = promotion
        return report

    graph = CallGraph(program)
    recursive = graph.recursive_functions()
    high_water: Dict[str, int] = {}
    for name in graph.bottom_up_order():
        fn = program.functions[name]
        promotion = promote_function(fn, ccm_bytes,
                                     callee_high_water=high_water)
        promotion.recursive = name in recursive
        nested = max((high_water.get(callee, ccm_bytes)
                      for callee in graph.callees[name]), default=0)
        # a call-graph cycle is conservatively marked as the whole CCM
        high_water[name] = (ccm_bytes if name in recursive
                            else max(promotion.high_water, nested))
        promotion.reported_high_water = high_water[name]
        fn.ccm_high_water = high_water[name]
        report.functions[name] = promotion
    return report
