"""Register allocation: Chaitin-Briggs and SSA backends with pluggable
spill placement.

:func:`allocate_function` dispatches on the process-wide engine
(``REPRO_REGALLOC_ENGINE`` / :func:`set_regalloc_engine`) or an explicit
``engine`` argument.
"""

from typing import Optional

from ..ir import Function
from ..machine import MachineConfig
from .calls import ConventionError, lower_calling_convention
from .chaitin_briggs import (AllocationError, AllocationResult,
                             ChaitinBriggsAllocator, SpillLocation,
                             StackSlotProvider)
from .chaitin_briggs import allocate_function as allocate_function_chaitin
from .engine import regalloc_engine, set_regalloc_engine, spill_mode_for
from .interference import (InterferenceGraph,
                           build_interference_graph, to_dot)
from .spill_costs import INFINITE, compute_spill_costs
from .ssa import SsaAllocationResult, SsaAllocator, allocate_function_ssa


def allocate_function(fn: Function, machine: MachineConfig,
                      slot_provider=None, graph_hook=None,
                      rematerialize: bool = True,
                      engine: Optional[str] = None) -> AllocationResult:
    """Allocate registers for ``fn`` in place with the selected backend."""
    engine = engine or regalloc_engine()
    if engine == "chaitin":
        return allocate_function_chaitin(fn, machine, slot_provider,
                                         graph_hook, rematerialize)
    return allocate_function_ssa(fn, machine, slot_provider, graph_hook,
                                 rematerialize,
                                 spill_mode=spill_mode_for(engine))


__all__ = [
    "ConventionError", "lower_calling_convention", "AllocationError",
    "AllocationResult", "ChaitinBriggsAllocator", "SpillLocation",
    "StackSlotProvider", "allocate_function", "allocate_function_chaitin",
    "allocate_function_ssa", "SsaAllocationResult", "SsaAllocator",
    "regalloc_engine", "set_regalloc_engine", "spill_mode_for",
    "InterferenceGraph", "build_interference_graph", "to_dot", "INFINITE",
    "compute_spill_costs",
]
