"""CCM allocation integrated into the Chaitin-Briggs allocator
(paper section 3.2, Figure 2).

CCM locations appear as extra names in the register allocator's
interference graph.  On the first pass they have no interference; once
spill code targeting the CCM exists, each location is live from its
store to its last load, which forces edges between CCM locations and
live ranges.  The allocator ignores those edges while coloring and
consults them when it must spill: "a value v cannot be spilled to CCM
position m if an edge from v to m is in the interference graph" — plus
the footnote-5 refinement for values spilled in the same round.

Because the allocator ignores the CCM edges while coloring, the CCM
size changes only *where* a spilled value goes, never which values
spill or which registers the rest get.  The Chaitin-Briggs path
therefore allocates once and places per size:

* :class:`CcmPlacementProvider` hands out ordinary stack slots, one
  unique offset per spilled value, so the emitted code is exactly the
  baseline allocator's.  At each spill it also places the value for
  every requested CCM size, each size keeping its own state: a value
  live across a call stays on the stack (values resident in the CCM
  across a call would collide with the callee's CCM use); otherwise it
  takes the first CCM range not excluded by interference, falling back
  to the stack when the CCM is full.
* :class:`SpillSlotHook` is the stack-slot twin of the CCM-location
  edges: it tracks the slots of values that are CCM-placed at some
  requested size and adds value<->slot edges, from which each size's
  blocked CCM ranges follow.
* :meth:`SpillPlacement.materialize` rewrites the allocated function
  (or a clone of it) to one size: spill ops of CCM-placed values become
  CCM ops, the remaining stack slots are re-packed.

The SSA backend's register decisions *do* react to placement (its split
mode re-spills around CCM-resident owners), so it keeps the per-size
allocation with the classic plug-ins:

* :class:`CcmGraphHook` rides along the graph builder's backward walk,
  tracking which CCM byte ranges are live and adding value<->location
  edges (location<->location overlap is implicit in the byte ranges).
* :class:`IntegratedCcmSlotProvider` answers spill requests for one
  CCM size with the same first-fit rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis import CFG, AnalysisManager, iter_bits, \
    values_live_across_calls
from ..ir import (CCM_LOADS, CCM_STORES, SPILL_LOADS, SPILL_OPS, SPILL_STORES,
                  TO_CCM, Function, Instruction, Opcode, VirtualReg)
from ..machine import MachineConfig
from ..regalloc.chaitin_briggs import (AllocationResult,
                                       ChaitinBriggsAllocator, SpillLocation,
                                       StackSlotProvider, _align)
from ..regalloc.interference import InterferenceGraph, PseudoNode
from ..trace import trace_counter


class CcmLocation(PseudoNode):
    """A byte range of the CCM, as a pseudo node in the graph."""

    __slots__ = ("offset", "size")

    def __init__(self, offset: int, size: int):
        self.offset = offset
        self.size = size

    def __eq__(self, other) -> bool:
        return (isinstance(other, CcmLocation)
                and other.offset == self.offset and other.size == self.size)

    def __hash__(self) -> int:
        # integers only: a string component would make the hash (and so
        # graph-set iteration order) PYTHONHASHSEED-dependent
        return hash((0x43434D, self.offset, self.size))

    def overlaps(self, offset: int, size: int) -> bool:
        return self.offset < offset + size and offset < self.offset + self.size

    def __repr__(self) -> str:
        return f"ccm[{self.offset}:{self.offset + self.size}]"


def _ccm_size(instr: Instruction) -> int:
    return 4 if instr.opcode in (Opcode.CCMST, Opcode.CCMLD) else 8


def _first_fit(blocked: List[Tuple[int, int]], size: int,
               ccm_bytes: int) -> Optional[int]:
    """The lowest ``size``-aligned CCM offset overlapping no blocked
    (offset, size) range, or None when it would end past the CCM."""
    offset = 0
    blocked.sort()
    for start, bsize in blocked:
        if offset < start + bsize and start < offset + size:
            offset = (start + bsize + size - 1) & ~(size - 1)
    if offset + size > ccm_bytes:
        return None
    return offset


class CcmGraphHook:
    """Adds CCM-location liveness to the interference graph build.

    Invoked instruction-by-instruction during the same backward walk
    that builds register interference.  Maintains the set of live CCM
    locations (live from store to last load, backward: a load makes the
    location live, a store ends it) seeded per block from a quick
    block-level fixpoint computed in :meth:`begin`.
    """

    def __init__(self):
        self._live_out: Dict[str, Set[CcmLocation]] = {}
        self._current: Optional[str] = None
        self._live: Set[CcmLocation] = set()

    # -- block-level fixpoint ------------------------------------------------

    def begin(self, fn: Function, graph: InterferenceGraph,
              manager: Optional[AnalysisManager] = None) -> None:
        cfg = manager.cfg() if manager is not None else CFG(fn)
        gen: Dict[str, Set[CcmLocation]] = {}
        kill: Dict[str, Set[CcmLocation]] = {}
        for block in fn.blocks:
            g: Set[CcmLocation] = set()
            k: Set[CcmLocation] = set()
            for instr in block.instructions:
                if instr.opcode in CCM_LOADS:
                    loc = CcmLocation(instr.imm, _ccm_size(instr))
                    if loc not in k:
                        g.add(loc)
                elif instr.opcode in CCM_STORES:
                    k.add(CcmLocation(instr.imm, _ccm_size(instr)))
            gen[block.label] = g
            kill[block.label] = k

        live_in: Dict[str, Set[CcmLocation]] = {b.label: set() for b in fn.blocks}
        self._live_out = {b.label: set() for b in fn.blocks}
        worklist = deque(cfg.postorder())
        queued = set(worklist)
        while worklist:
            label = worklist.popleft()
            queued.discard(label)
            out: Set[CcmLocation] = set()
            for succ in cfg.succs[label]:
                out |= live_in[succ]
            new_in = gen[label] | (out - kill[label])
            if out != self._live_out[label] or new_in != live_in[label]:
                self._live_out[label] = out
                live_in[label] = new_in
                for pred in cfg.preds[label]:
                    if pred not in queued:
                        worklist.append(pred)
                        queued.add(pred)
        self._current = None
        self._live = set()

    # -- per-instruction (called backward within each block) -----------------

    def visit(self, label: str, instr: Instruction, live_after: Set,
              graph: InterferenceGraph) -> None:
        if label != self._current:
            self._current = label
            self._live = set(self._live_out.get(label, ()))

        # every register defined here conflicts with live CCM locations
        for loc in self._live:
            for dst in instr.dsts:
                graph.add_pseudo_edge(dst, loc)

        if instr.opcode in CCM_STORES:
            loc = CcmLocation(instr.imm, _ccm_size(instr))
            # the location becomes live here: everything live after the
            # store conflicts with it
            for reg in live_after:
                graph.add_pseudo_edge(reg, loc)
            self._live.discard(loc)
        elif instr.opcode in CCM_LOADS:
            self._live.add(CcmLocation(instr.imm, _ccm_size(instr)))


class IntegratedCcmSlotProvider(StackSlotProvider):
    """Spill-slot provider that prefers CCM locations (Figure 2's
    emboldened "Spill (try to spill into CCM positions)") for one CCM
    size; the SSA backend's integrated scheme."""

    def __init__(self, fn: Function, machine: MachineConfig):
        super().__init__(fn)
        self.machine = machine
        self.ccm_assigned: Dict[VirtualReg, SpillLocation] = {}
        #: values assigned a CCM range in the current spill round, with
        #: the interference graph consulted for the footnote-5 rule
        self._round: List[Tuple[VirtualReg, int, int]] = []
        self._live_across_call: Set = set()
        #: set by the split-mode SSA allocator: its def-residency keeps
        #: uses reading the register, so an assigned CCM location can
        #: look dead (store, no loads) yet grow loads in a later
        #: re-spill round.  Block the offsets of every owner that might
        #: still overlap instead of trusting the store->load spans.
        self.conservative_owners = False
        #: reload temp -> owning spilled value (the SSA allocator's
        #: ``_temp_origin``, shared by reference).  Demoting a reused or
        #: hoisted temp re-extends its owner's location span across the
        #: *temp's* live range, so owner conflicts must be checked
        #: against the temps too, not just the owner's shrunken range.
        self.temp_origin: Dict[VirtualReg, VirtualReg] = {}

    def begin_spill_round(self, fn: Function,
                          analysis: AnalysisManager) -> None:
        self._round = []
        self._live_across_call = values_live_across_calls(
            fn, analysis.liveness())

    def assign(self, reg, graph: InterferenceGraph) -> SpillLocation:
        if reg in self._live_across_call:
            # conservative intraprocedural rule
            trace_counter("ccm.integrated.stack_live_across_call")
            return super().assign(reg, graph)
        size = reg.rclass.size_bytes
        offset = self._find_ccm_offset(reg, size, graph)
        if offset is None:
            trace_counter("ccm.integrated.stack_ccm_full")
            return super().assign(reg, graph)
        location = SpillLocation("ccm", offset, size)
        self.ccm_assigned[reg] = location
        self._round.append((reg, offset, size))
        return location

    def _find_ccm_offset(self, reg, size: int,
                         graph: InterferenceGraph) -> Optional[int]:
        blocked: List[Tuple[int, int]] = []
        for node in graph.neighbors(reg):
            if isinstance(node, CcmLocation):
                blocked.append((node.offset, node.size))
        # footnote 5: a value u cannot share a CCM range with a value p
        # spilled to it in this round when (u, p) interfere.  The class-
        # split interference graph has no int<->float edges, so same-round
        # values of different classes are conservatively never packed
        # together (their true overlap is unknown to the graph).
        for other, off, osize in self._round:
            if other.rclass is not reg.rclass or graph.interferes(reg, other):
                blocked.append((off, osize))
        if self.conservative_owners:
            # a location's future span stays within its owner's current
            # register range *or* one of its reload temps' ranges (a
            # demoted temp grows per-use loads of the owner's slot), so
            # interference with either — or a cross-class owner,
            # invisible to the class-split graph — blocks sharing
            temps_of: Dict[VirtualReg, List[VirtualReg]] = {}
            for temp, owner in self.temp_origin.items():
                temps_of.setdefault(owner, []).append(temp)
            for other, oloc in self.ccm_assigned.items():
                if other is reg:
                    continue
                if (other.rclass is not reg.rclass
                        or graph.interferes(reg, other)
                        or any(graph.interferes(reg, t)
                               for t in temps_of.get(other, ()))):
                    blocked.append((oloc.offset, oloc.size))
        return _first_fit(blocked, size, self.machine.ccm_bytes)


# -- Chaitin-Briggs: allocate once, place per CCM size -------------------------


class SpillSlot(PseudoNode):
    """The stack slot of one spilled value, as a pseudo node; ``owner``
    is that value."""

    __slots__ = ("offset", "owner")

    def __init__(self, offset: int, owner):
        self.offset = offset
        self.owner = owner

    def __eq__(self, other) -> bool:
        return isinstance(other, SpillSlot) and other.offset == self.offset

    def __hash__(self) -> int:
        return hash((0x534C4F54, self.offset))

    def __repr__(self) -> str:
        return f"slot[{self.offset}]"


class SpillSlotHook:
    """The stack-slot twin of :class:`CcmGraphHook`.

    Tracks the liveness of the stack slots handed to it (live from
    store to last load) and adds an edge between each tracked slot and
    every register live across its span.  Each slot has one owner, so
    a value's slot neighbors are exactly the earlier-spilled values
    whose memory span it overlaps — under any CCM size.

    Pseudo rows are written as masks (``adj[slot] |= live_mask``) and
    mirrored by the builder's symmetrize step.  A build with no tracked
    slot skips the hook entirely.
    """

    def __init__(self):
        self._nodes: List[SpillSlot] = []    # the tracked slot of bit j
        self._bit: Dict[int, int] = {}       # stack offset -> bit
        self._pids: List[int] = []           # bit -> graph id
        self._live_out: Dict[str, int] = {}
        self._current: Optional[str] = None
        self._live = 0
        self._adj: List[int] = []

    def track(self, offset: int, owner) -> None:
        self._bit[offset] = len(self._nodes)
        self._nodes.append(SpillSlot(offset, owner))

    def owners_adjacent(self, reg, graph: InterferenceGraph) -> List:
        """The owners of the tracked slots ``reg`` interferes with."""
        mask = graph.neighbor_mask(graph.id_of(reg)) & graph.pseudo_mask
        return [graph.node_at(j).owner for j in iter_bits(mask)]

    def begin(self, fn: Function, graph: InterferenceGraph,
              manager: Optional[AnalysisManager] = None) -> bool:
        if not self._nodes:
            return False
        self._pids = [graph.ensure(node) for node in self._nodes]
        self._adj = graph._adj
        bit = self._bit
        gen: Dict[str, int] = {}
        kill: Dict[str, int] = {}
        for block in fn.blocks:
            g = k = 0
            for instr in block.instructions:
                if instr.opcode in SPILL_OPS:
                    j = bit.get(instr.imm)
                    if j is None:
                        continue
                    if instr.opcode in SPILL_LOADS:
                        if not (k >> j) & 1:
                            g |= 1 << j
                    else:
                        k |= 1 << j
            gen[block.label] = g
            kill[block.label] = k

        cfg = manager.cfg() if manager is not None else CFG(fn)
        live_in = {b.label: 0 for b in fn.blocks}
        live_out = {b.label: 0 for b in fn.blocks}
        worklist = deque(cfg.postorder())
        queued = set(worklist)
        while worklist:
            label = worklist.popleft()
            queued.discard(label)
            out = 0
            for succ in cfg.succs[label]:
                out |= live_in[succ]
            new_in = gen[label] | (out & ~kill[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                for pred in cfg.preds[label]:
                    if pred not in queued:
                        worklist.append(pred)
                        queued.add(pred)
        self._live_out = live_out
        self._current = None
        self._live = 0
        return True

    def visit(self, label: str, instr: Instruction, live_after,
              graph: InterferenceGraph) -> None:
        if label != self._current:
            self._current = label
            self._live = self._live_out[label]
        live = self._live
        adj = self._adj
        pids = self._pids
        if live and instr.dsts:
            # every register defined here conflicts with live slots
            ids = graph._ids
            dsts = 0
            for dst in instr.dsts:
                dsts |= 1 << ids[dst]
            for j in iter_bits(live):
                adj[pids[j]] |= dsts
        opcode = instr.opcode
        if opcode in SPILL_STORES:
            j = self._bit.get(instr.imm)
            if j is not None:
                # the slot becomes live here: everything live after the
                # store conflicts with it
                adj[pids[j]] |= live_after.mask
                self._live = live & ~(1 << j)
        elif opcode in SPILL_LOADS:
            j = self._bit.get(instr.imm)
            if j is not None:
                self._live = live | (1 << j)


class SpillPlacement:
    """Where each spilled value of one allocation lives, per CCM size.

    Filled spill by spill by :class:`CcmPlacementProvider`; each size
    replays the integrated allocator's decisions with its own state —
    the CCM ranges it has given out, its same-round values, its stack
    frame.
    """

    def __init__(self, ccm_sizes: Sequence[int], base_frame: int):
        self.sizes = tuple(ccm_sizes)
        #: spilled value -> its unique stack offset in the emitted code
        self.stack_offsets: Dict[VirtualReg, int] = {}
        #: per size: spilled value -> location, in spill order
        self.locations: Dict[int, Dict[VirtualReg, SpillLocation]] = {
            size: {} for size in self.sizes}
        self.frames: Dict[int, int] = {size: base_frame
                                       for size in self.sizes}
        self._round: Dict[int, List[Tuple[VirtualReg, int, int]]] = {
            size: [] for size in self.sizes}

    def begin_round(self) -> None:
        for entries in self._round.values():
            entries.clear()

    def place(self, reg, slot: SpillLocation, live_across_call: bool,
              earlier: Iterable, blockers: Set) -> bool:
        """Place one spilled value at every size; returns whether some
        size put it in the CCM.

        ``earlier`` are the earlier-spilled values whose memory span
        ``reg`` overlaps; ``blockers`` the same-round values it may not
        share a range with (footnote 5)."""
        self.stack_offsets[reg] = slot.offset
        size = slot.size
        in_ccm = False
        for ccm_bytes in self.sizes:
            locations = self.locations[ccm_bytes]
            offset = None
            if live_across_call:
                trace_counter("ccm.integrated.stack_live_across_call")
            else:
                blocked = []
                for other in earlier:
                    loc = locations[other]
                    if loc.kind == "ccm":
                        blocked.append((loc.offset, loc.size))
                for other, off, osize in self._round[ccm_bytes]:
                    if other in blockers:
                        blocked.append((off, osize))
                offset = _first_fit(blocked, size, ccm_bytes)
                if offset is None:
                    trace_counter("ccm.integrated.stack_ccm_full")
            if offset is None:
                offset = _align(self.frames[ccm_bytes], size)
                self.frames[ccm_bytes] = offset + size
                locations[reg] = SpillLocation("stack", offset, size)
            else:
                locations[reg] = SpillLocation("ccm", offset, size)
                self._round[ccm_bytes].append((reg, offset, size))
                in_ccm = True
        return in_ccm

    def _remap(self, ccm_bytes: int) -> Dict[int, SpillLocation]:
        """Stack offset in the emitted code -> location at ``ccm_bytes``,
        for the values that move."""
        stack_offsets = self.stack_offsets
        return {stack_offsets[reg]: loc
                for reg, loc in self.locations[ccm_bytes].items()
                if loc.kind == "ccm" or loc.offset != stack_offsets[reg]}

    def decision(self, ccm_bytes: int) -> tuple:
        """What :meth:`materialize` writes at ``ccm_bytes``, hashable:
        the frame size and each moved stack offset's (kind, offset).
        Sizes that move no value — 0 among them — give ``()``: their
        materialized code is the allocation itself."""
        remap = self._remap(ccm_bytes)
        if not remap:
            return ()
        return (self.frames[ccm_bytes],
                tuple(sorted((offset, loc.kind, loc.offset)
                             for offset, loc in remap.items())))

    def materialize(self, fn: Function, ccm_bytes: int,
                    result: Optional[AllocationResult] = None
                    ) -> Optional[AllocationResult]:
        """Rewrite ``fn`` — the allocated function or a clone of it —
        to its placement at ``ccm_bytes``; with ``result`` (the shared
        allocation's), returns the matching per-size result."""
        remap = self._remap(ccm_bytes)
        if remap:
            for block in fn.blocks:
                for instr in block.instructions:
                    if instr.opcode in SPILL_OPS:
                        loc = remap.get(instr.imm)
                        if loc is not None:
                            if loc.kind == "ccm":
                                instr.opcode = TO_CCM[instr.opcode]
                            instr.imm = loc.offset
        fn.frame_size = self.frames[ccm_bytes]
        if result is None:
            return None
        return replace(result, fn=fn,
                       locations=dict(self.locations[ccm_bytes]))


class CcmPlacementProvider(StackSlotProvider):
    """Stack slots for the emitted code, CCM placement for every size
    in ``ccm_sizes`` (see the module docstring).

    Pass :attr:`graph_hook` to the allocator with the provider.  With
    ``in_place`` (one size only) the finished allocation is
    materialized into the allocated function itself.
    """

    def __init__(self, fn: Function, ccm_sizes: Sequence[int],
                 in_place: bool = False):
        super().__init__(fn)
        if in_place and len(ccm_sizes) != 1:
            raise ValueError("in-place placement needs exactly one size")
        self.placement = SpillPlacement(ccm_sizes, fn.frame_size)
        self.graph_hook = SpillSlotHook()
        self.in_place = in_place
        self._live_across_call: Set = set()
        #: this round's values that some size put in the CCM
        self._round: List[VirtualReg] = []

    def begin_spill_round(self, fn: Function,
                          analysis: AnalysisManager) -> None:
        self._live_across_call = values_live_across_calls(
            fn, analysis.liveness())
        self._round = []
        self.placement.begin_round()

    def assign(self, reg, graph: InterferenceGraph) -> SpillLocation:
        slot = super().assign(reg, graph)
        crosses = reg in self._live_across_call
        earlier: List = []
        blockers: Set = set()
        if not crosses:
            earlier = self.graph_hook.owners_adjacent(reg, graph)
            # the class-split graph has no int<->float edges, so values
            # of the other class conservatively always block
            blockers = {other for other in self._round
                        if other.rclass is not reg.rclass
                        or graph.interferes(reg, other)}
        if self.placement.place(reg, slot, crosses, earlier, blockers):
            self.graph_hook.track(slot.offset, reg)
            self._round.append(reg)
        return slot

    def finish(self, result: AllocationResult) -> AllocationResult:
        if not self.in_place:
            return result
        (ccm_bytes,) = self.placement.sizes
        return self.placement.materialize(self.fn, ccm_bytes, result)


def allocate_function_integrated(fn: Function, machine: MachineConfig,
                                 engine: Optional[str] = None,
                                 rematerialize: bool = True):
    """Allocate ``fn`` with integrated CCM spilling; returns the
    :class:`~repro.regalloc.chaitin_briggs.AllocationResult`.

    ``engine`` selects the allocator backend (default: the process-wide
    ``REPRO_REGALLOC_ENGINE``).  Chaitin-Briggs runs the one-size case
    of :class:`CcmPlacementProvider`; the SSA backend plugs the classic
    CCM slot provider and graph hook into its own spill machinery."""
    from ..regalloc.engine import regalloc_engine, spill_mode_for
    engine = engine or regalloc_engine()
    if engine == "chaitin":
        provider = CcmPlacementProvider(fn, (machine.ccm_bytes,),
                                        in_place=True)
        return ChaitinBriggsAllocator(fn, machine, slot_provider=provider,
                                      graph_hook=provider.graph_hook,
                                      rematerialize=rematerialize).run()
    from ..regalloc.ssa import SsaAllocator
    return SsaAllocator(fn, machine,
                        slot_provider=IntegratedCcmSlotProvider(fn, machine),
                        graph_hook=CcmGraphHook(),
                        rematerialize=rematerialize,
                        spill_mode=spill_mode_for(engine)).run()
