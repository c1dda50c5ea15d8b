"""Coloring-based compaction of stack spill memory (paper Table 1).

The paper: "using the register allocation's coloring paradigm to assign
spilled values to memory can greatly reduce the amount of memory
required by a program."  Non-interfering spill webs share one stack
slot; the experiment reports bytes of spill memory before and after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir import Function, Opcode, SPILL_LOADS, SPILL_STORES
from ..trace import trace_counter, trace_span
from .assign import first_fit_offset
from .mem_liveness import WebInterference
from .postpass import analyze_spill_webs
from .slots import SpillWeb


@dataclass
class CompactionResult:
    fn_name: str
    bytes_before: int
    bytes_after: int
    n_webs: int

    @property
    def ratio(self) -> float:
        """The paper's After/Before column."""
        if self.bytes_before == 0:
            return 1.0
        return self.bytes_after / self.bytes_before


def spill_bytes_in_use(fn: Function) -> int:
    """Bytes of spill memory actually referenced by spill instructions."""
    high = 0
    for block in fn.blocks:
        for instr in block.instructions:
            if instr.opcode in SPILL_STORES or instr.opcode in SPILL_LOADS:
                size = 4 if instr.opcode in (Opcode.SPILL, Opcode.RELOAD) else 8
                high = max(high, instr.imm + size)
    return high


def compact_spill_memory(fn: Function,
                         analysis: Optional[WebInterference] = None
                         ) -> CompactionResult:
    """Recolor the function's stack spill slots in place.

    ``analysis``, if given, replaces the spill-web analysis of ``fn``:
    :func:`~repro.ccm.postpass.analyze_spill_webs` of the program ``fn``
    was cloned from, its ``webs`` narrowed to those still on the stack
    (a post-pass promotion only removes webs, so the rest keep their
    sites, offsets and interference).
    """
    with trace_span("ccm.compact", fn=fn.name):
        result = _compact_spill_memory(fn, analysis)
    trace_counter("ccm.compaction_bytes_before", result.bytes_before)
    trace_counter("ccm.compaction_bytes_after", result.bytes_after)
    return result


def _compact_spill_memory(fn: Function,
                          analysis: Optional[WebInterference]
                          ) -> CompactionResult:
    interference = (analysis if analysis is not None
                    else analyze_spill_webs(fn))
    webs = interference.webs
    before = fn.frame_size or spill_bytes_in_use(fn)
    if not webs:
        return CompactionResult(fn.name, before, before, 0)

    # Upward-exposed webs read memory the allocator did not write (never
    # produced by our spiller, but possible in hand-written input): pin
    # them at their original offsets and pack everything else around.
    movable = [w for w in webs if not w.upward_exposed]
    pinned = [w for w in webs if w.upward_exposed]
    placed = {w.web_id: w.offset for w in pinned}

    placement = dict(placed)
    placement.update(
        _assign_around(movable, interference, placed, webs))

    high = 0
    for web in webs:
        offset = placement[web.web_id]
        high = max(high, offset + web.size)
        for label, idx in web.sites:
            fn.block(label).instructions[idx].imm = offset
    fn.frame_size = high
    return CompactionResult(fn.name, before, high, len(webs))


def _assign_around(movable: List[SpillWeb], interference, pinned: Dict[int, int],
                   all_webs: List[SpillWeb]) -> Dict[int, int]:
    """First-fit the movable webs, seeding placement with pinned ones."""
    by_id = {w.web_id: w for w in all_webs}
    placed = dict(pinned)
    result: Dict[int, int] = {}
    ordered = sorted(movable,
                     key=lambda w: (-interference.costs.get(w.web_id, 0.0),
                                    w.web_id))
    for web in ordered:
        intervals = [(placed[n], by_id[n].size)
                     for n in interference.neighbors(web.web_id)
                     if n in placed]
        offset = first_fit_offset(web, intervals, capacity=None)
        placed[web.web_id] = offset
        result[web.web_id] = offset
    return result
