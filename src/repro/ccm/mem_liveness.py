"""Liveness and interference over spill-memory webs.

Implements the paper's redefined liveness (section 3.1): a spill
location m is *live* at point p if some path from p reaches a load of m
before another store to m; m is *defined* by a store and *used* by a
load.  The interference graph built from this tells the allocators which
webs may share a CCM (or stack) location.

The same walk also records, per call site, the set of webs live across
the call — the input both to the intraprocedural rule ("only promote
values not live across any call") and to the interprocedural high-water
discipline.

Web ids are already a dense numbering (0..n-1 from
:func:`repro.ccm.slots.find_spill_webs`), so the fixpoint runs directly
over integer masks — bit i is web i — and the set-typed
:class:`WebInterference` fields are materialized once at the end.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import CFG, AnalysisManager, LoopInfo, iter_bits
from ..ir import Function, Opcode
from .slots import Site, SpillWeb


@dataclass
class WebInterference:
    """Interference graph over webs plus call-crossing information."""

    webs: List[SpillWeb]
    adj: Dict[int, Set[int]] = field(default_factory=lambda: defaultdict(set))
    #: web ids live across at least one call instruction
    live_across_call: Set[int] = field(default_factory=set)
    #: call-site -> (callee name, web ids live across that call)
    calls_crossed: Dict[Site, Tuple[str, Set[int]]] = field(default_factory=dict)
    #: static (loop-weighted) cost of each web's spill traffic
    costs: Dict[int, float] = field(default_factory=dict)

    def interferes(self, a: int, b: int) -> bool:
        return b in self.adj.get(a, ())

    def neighbors(self, web_id: int) -> Set[int]:
        return self.adj.get(web_id, set())

    def add_edge(self, a: int, b: int) -> None:
        if a != b:
            self.adj[a].add(b)
            self.adj[b].add(a)


def analyze_webs(fn: Function, webs: List[SpillWeb],
                 manager: Optional[AnalysisManager] = None
                 ) -> WebInterference:
    """Backward liveness over webs; returns the interference structure.

    Costs are the static Chaitin estimate (10^loop-depth per site).
    ``manager`` supplies cached CFG / loop analyses.
    """
    result = WebInterference(webs)
    if not webs:
        return result
    cfg = manager.cfg() if manager is not None else CFG(fn)
    loops = manager.loops() if manager is not None else LoopInfo(fn)
    # consistent with find_spill_webs: code in unreachable blocks never
    # executes, so it neither generates liveness nor interference
    reachable = cfg.reachable()

    web_of_store: Dict[Site, int] = {}
    web_of_load: Dict[Site, int] = {}
    for web in webs:
        for site in web.stores:
            web_of_store[site] = web.web_id
        for site in web.loads:
            web_of_load[site] = web.web_id
        result.costs[web.web_id] = sum(loops.block_frequency(label)
                                       for label, _ in web.sites)

    # per-block gen (upward-exposed loads) / kill (stores) over web-id masks
    gen: Dict[str, int] = {}
    kill: Dict[str, int] = {}
    for block in fn.blocks:
        g = 0
        k = 0
        if block.label in reachable:
            for idx, instr in enumerate(block.instructions):
                site = (block.label, idx)
                web_id = web_of_load.get(site)
                if web_id is not None and not (k >> web_id) & 1:
                    g |= 1 << web_id
                web_id = web_of_store.get(site)
                if web_id is not None:
                    k |= 1 << web_id
        gen[block.label] = g
        kill[block.label] = k

    live_in: Dict[str, int] = {b.label: 0 for b in fn.blocks}
    live_out: Dict[str, int] = {b.label: 0 for b in fn.blocks}
    succs = cfg.succs
    preds = cfg.preds
    worklist = deque(cfg.postorder())
    queued = set(worklist)
    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        out = 0
        for succ in succs[label]:
            out |= live_in[succ]
        new_in = gen[label] | (out & ~kill[label])
        if out != live_out[label] or new_in != live_in[label]:
            live_out[label] = out
            live_in[label] = new_in
            for pred in preds[label]:
                if pred not in queued:
                    worklist.append(pred)
                    queued.add(pred)

    # webs live simultaneously at entry (upward-exposed) interfere
    entry_live = list(iter_bits(live_in[fn.entry.label]))
    for i, a in enumerate(entry_live):
        for b in entry_live[i + 1:]:
            result.add_edge(a, b)

    # instruction-level backward walk: edges at defs, call crossings
    crossing_mask = 0
    for block in fn.blocks:
        if block.label not in reachable:
            continue
        live = live_out[block.label]
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            site = (block.label, idx)
            if instr.opcode is Opcode.CALL:
                crossing_mask |= live
                result.calls_crossed[site] = (instr.symbol,
                                              set(iter_bits(live)))
            web_id = web_of_store.get(site)
            if web_id is not None:
                for other in iter_bits(live & ~(1 << web_id)):
                    result.add_edge(web_id, other)
                live &= ~(1 << web_id)
            web_id = web_of_load.get(site)
            if web_id is not None:
                live |= 1 << web_id
    result.live_across_call = set(iter_bits(crossing_mask))
    return result
