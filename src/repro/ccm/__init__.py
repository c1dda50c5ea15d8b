"""Compiler-controlled-memory allocation: the paper's contribution.

Three allocation schemes plus spill-memory compaction:

* :func:`promote_spills_postpass` — the post-pass CCM allocator of
  section 3.1 (Figure 1), intraprocedural or interprocedural; a
  placement decision (:func:`decide_postpass`) rewritten into the code
  (:func:`rewrite_postpass`).
* :func:`allocate_function_integrated` — the register allocator with
  CCM spilling built into spill-code insertion (section 3.2, Figure 2);
  under Chaitin-Briggs one allocation serves every CCM size
  (:class:`CcmPlacementProvider`).
* :func:`compact_spill_memory` — coloring-based compaction of stack
  spill slots (Table 1).
"""

from .assign import assign_webs, first_fit_offset
from .compaction import CompactionResult, compact_spill_memory, spill_bytes_in_use
from .integrated import (CcmGraphHook, CcmLocation, CcmPlacementProvider,
                         IntegratedCcmSlotProvider, SpillPlacement,
                         SpillSlotHook, allocate_function_integrated)
from .mem_liveness import WebInterference, analyze_webs
from .postpass import (FunctionPromotion, PromotionReport, analyze_spill_webs,
                       decide_postpass, promote_function,
                       promote_spills_postpass, rewrite_postpass,
                       stacked_analyses)
from .slots import SpillWeb, find_spill_webs

__all__ = [
    "assign_webs", "first_fit_offset", "CompactionResult",
    "compact_spill_memory", "spill_bytes_in_use", "CcmGraphHook",
    "CcmLocation", "CcmPlacementProvider", "IntegratedCcmSlotProvider",
    "SpillPlacement", "SpillSlotHook",
    "allocate_function_integrated", "WebInterference", "analyze_webs",
    "FunctionPromotion", "PromotionReport", "analyze_spill_webs",
    "decide_postpass", "promote_function",
    "promote_spills_postpass", "rewrite_postpass", "stacked_analyses",
    "SpillWeb", "find_spill_webs",
]
