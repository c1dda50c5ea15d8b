"""The Chaitin-Briggs graph-coloring register allocator.

Structure follows Briggs' thesis (the paper's reference [4]) and the
expanded algorithm of the paper's Figure 2:

    loop until no new spill code is added:
        build live ranges / interference graph
        coalesce copies (conservative)           -- repeat to fixed point
        calculate spill costs
        simplify                                  -- optimistic (Briggs)
        select
        spill                                     -- via a pluggable slot
                                                     provider; the CCM-
                                                     integrated allocator
                                                     substitutes its own

The spill-location decision is delegated to a *slot provider* so the
paper's integrated CCM allocator (section 3.2) can reuse this entire
machinery, changing only the emboldened steps of Figure 2.  Pseudo
nodes never constrain coloring, so a provider that places values into
the CCM changes no register decision: see
:mod:`repro.ccm.integrated` for how one allocation serves every CCM
size.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import AnalysisManager, iter_bits
from ..ir import (Function, Instruction, Opcode, PhysReg, RegClass,
                  VirtualReg, make_ccm_load, make_ccm_store, make_reload,
                  make_spill)
from ..machine import MachineConfig
from ..trace import trace_counter, trace_span
from .interference import (InterferenceGraph, PseudoNode,
                           build_interference_graph)
from .spill_costs import compute_spill_costs


class AllocationError(RuntimeError):
    """The allocator could not make progress (should not happen on
    well-formed input with a sane machine description)."""


@dataclass
class SpillLocation:
    """Where a spilled live range lives: the stack frame or the CCM."""

    kind: str          # "stack" | "ccm"
    offset: int
    size: int


class StackSlotProvider:
    """Default provider: every spill gets a fresh stack slot (this is the
    paper's baseline — the traditional allocator simply 'extends the
    activation record')."""

    def __init__(self, fn: Function):
        self.fn = fn

    def begin_spill_round(self, fn: Function,
                          analysis: AnalysisManager) -> None:
        """Hook invoked once per spill round before any :meth:`assign`,
        while ``analysis`` still describes the colored program;
        default: nothing."""

    def assign(self, reg, graph: InterferenceGraph) -> SpillLocation:
        size = reg.rclass.size_bytes
        offset = _align(self.fn.frame_size, size)
        self.fn.frame_size = offset + size
        return SpillLocation("stack", offset, size)

    def note_spill_code(self, reg, location: SpillLocation,
                        stores: List[Instruction],
                        loads: List[Instruction]) -> None:
        """Hook invoked after spill code is emitted; default: nothing."""

    def finish(self, result: "AllocationResult") -> "AllocationResult":
        """The provider's last word on a finished allocation, before its
        trace counters are taken; default: the result unchanged."""
        return result


def _align(value: int, size: int) -> int:
    return (value + size - 1) & ~(size - 1)


@dataclass
class AllocationResult:
    """What allocation did, for the experiment harness and the tests."""

    fn: Function
    rounds: int = 0
    spilled: List = field(default_factory=list)
    rematerialized: List = field(default_factory=list)
    locations: Dict[object, SpillLocation] = field(default_factory=dict)
    assignment: Dict[VirtualReg, PhysReg] = field(default_factory=dict)
    coalesced: int = 0

    @property
    def spill_bytes(self) -> int:
        """Bytes of stack spill memory (the 'Before' column of Table 1)."""
        return self.fn.frame_size

    @property
    def ccm_spills(self) -> List:
        return [r for r, loc in self.locations.items() if loc.kind == "ccm"]


class ChaitinBriggsAllocator:
    """Allocates one function.  See module docstring for the structure."""

    MAX_ROUNDS = 60

    def __init__(self, fn: Function, machine: MachineConfig,
                 slot_provider=None, graph_hook=None,
                 rematerialize: bool = True,
                 manager: Optional[AnalysisManager] = None):
        self.fn = fn
        self.machine = machine
        self.slot_provider = slot_provider or StackSlotProvider(fn)
        self.graph_hook = graph_hook
        self.rematerialize = rematerialize
        self.no_spill: Set[VirtualReg] = set()
        self.result = AllocationResult(fn)
        # one analysis cache for every spill round: CFG / dominators /
        # loops survive the whole allocation (coalescing and spill
        # insertion never change the block graph); liveness is
        # recomputed only after a pass reports an instruction mutation
        self.analysis = manager or AnalysisManager(fn)
        # per-coalesce cache of _color_degree, see _node_degree
        self._degree_cache: Dict[object, int] = {}

    # -- public entry --------------------------------------------------------

    def run(self) -> AllocationResult:
        with trace_span("regalloc.allocate", fn=self.fn.name):
            result = self.slot_provider.finish(self._run())
        self._trace_result(result)
        return result

    def _run(self) -> AllocationResult:
        for _ in range(self.MAX_ROUNDS):
            self.result.rounds += 1
            graph = self._build()
            self.result.coalesced += self._coalesce(graph)
            costs = compute_spill_costs(self.fn, self.no_spill,
                                        loop_info=self.analysis.loops())
            stack = self._simplify(graph, costs)
            trace_counter("regalloc.blocked_picks",
                          sum(1 for _, potential in stack if potential))
            assignment, actual_spills = self._select(graph, stack)
            if not actual_spills:
                self._rewrite(assignment)
                self.analysis.invalidate(cfg=False)
                self.result.assignment = assignment
                return self.result
            trace_counter("regalloc.spill_rounds")
            self._insert_spill_code(actual_spills, graph)
        raise AllocationError(
            f"{self.fn.name}: no fixed point after {self.MAX_ROUNDS} rounds")

    def _trace_result(self, result: AllocationResult) -> None:
        """Counters for one finished allocation (no-ops when off)."""
        trace_counter("regalloc.rounds", result.rounds)
        trace_counter("regalloc.coalesced", result.coalesced)
        trace_counter("regalloc.spilled", len(result.spilled))
        trace_counter("regalloc.rematerialized",
                      len(result.rematerialized))
        ccm = sum(1 for loc in result.locations.values()
                  if loc.kind == "ccm")
        trace_counter("regalloc.ccm_spills", ccm)
        trace_counter("regalloc.stack_spills", len(result.spilled) - ccm)
        trace_counter("regalloc.frame_bytes", self.fn.frame_size)

    # -- phases ------------------------------------------------------------------

    def _build(self) -> InterferenceGraph:
        return build_interference_graph(self.fn, self.machine,
                                        self.graph_hook,
                                        manager=self.analysis)

    def _k(self, rclass: RegClass) -> int:
        return self.machine.n_regs(rclass)

    # .. coalescing ...............................................................

    def _coalesce(self, graph: InterferenceGraph) -> int:
        """Conservatively merge move-related nodes in the graph, then
        rewrite the code once.  Returns the number of merges."""
        alias: Dict[object, object] = {}
        self._degree_cache = {}

        def find(node):
            while node in alias:
                node = alias[node]
            return node

        merged = 0
        changed = True
        while changed:
            changed = False
            for a, b in list(graph.moves):
                a, b = find(a), find(b)
                if a == b:
                    continue
                if isinstance(a, VirtualReg) and isinstance(b, PhysReg):
                    a, b = b, a  # keep the physical register
                if isinstance(b, PhysReg):
                    continue  # never merge two physical registers
                if graph.interferes(a, b):
                    continue
                if not self._can_coalesce(graph, a, b):
                    continue
                self._merge_nodes(graph, a, b)
                alias[b] = a
                merged += 1
                changed = True

        if merged:
            self._rewrite_aliases(find)
            self.analysis.invalidate(cfg=False)
        return merged

    def _can_coalesce(self, graph: InterferenceGraph, a, b) -> bool:
        k = self._k(b.rclass)
        if isinstance(a, PhysReg):
            # George test: every neighbor of b must either already
            # conflict with a (distinct physical registers always do)
            # or be insignificant.  Pseudo nodes (degree 0) and other
            # physical registers pass unconditionally, so only b's
            # virtual neighbors not already adjacent to a need a degree
            # check.
            amask = graph.neighbor_mask(graph.id_of(a))
            check = (graph.neighbor_mask(graph.id_of(b))
                     & graph.vreg_mask & ~amask)
            return all(self._node_degree(graph, graph.node_at(j)) < k
                       for j in iter_bits(check))
        # Briggs test: the merged node has < k significant neighbors.
        combined = (graph.neighbor_mask(graph.id_of(a))
                    | graph.neighbor_mask(graph.id_of(b)))
        significant = (combined & graph.phys_mask).bit_count()
        if significant >= k:
            return False
        for j in iter_bits(combined & graph.vreg_mask):
            if self._node_degree(graph, graph.node_at(j)) >= k:
                significant += 1
                if significant >= k:
                    return False
        return significant < k

    def _node_degree(self, graph: InterferenceGraph, node) -> float:
        if isinstance(node, PseudoNode):
            return 0  # CCM locations never constrain coloring
        if isinstance(node, PhysReg):
            return math.inf  # precolored nodes are always significant
        # degrees only change when _merge_nodes runs, which evicts the
        # affected entries — every other lookup hits the cache
        degree = self._degree_cache.get(node)
        if degree is None:
            degree = self._degree_cache[node] = \
                graph.color_degree(graph.id_of(node))
        return degree

    def _merge_nodes(self, graph: InterferenceGraph, a, b) -> None:
        self._degree_cache.pop(a, None)
        self._degree_cache.pop(b, None)
        for j in iter_bits(graph.neighbor_mask(graph.id_of(b))
                           & ~graph.pseudo_mask):
            self._degree_cache.pop(graph.node_at(j), None)
        graph.merge_into(a, b)

    def _rewrite_aliases(self, find) -> None:
        for block in self.fn.blocks:
            kept = []
            for instr in block.instructions:
                for i, reg in enumerate(instr.srcs):
                    instr.srcs[i] = find(reg)
                for i, reg in enumerate(instr.dsts):
                    instr.dsts[i] = find(reg)
                if instr.is_move and instr.srcs[0] == instr.dsts[0]:
                    continue  # coalesced copy disappears
                kept.append(instr)
            block.instructions = kept
        self.fn.params = [find(p) for p in self.fn.params]

    # .. simplify / select ...........................................................

    def _simplify(self, graph: InterferenceGraph, costs) -> List[Tuple]:
        """Remove nodes, cheapest-first when blocked (optimistic spilling).

        Returns the select stack of (node, potential_spill) pairs.

        The removal order is the historical sweep order, kept as the
        oracle in ``tests/regalloc_oracle.py``: each sweep removes every
        node whose degree is below k, in the iteration order of the
        ``removable`` set built below; when none is, the node of least
        cost / degree goes, ties to the earliest in that order.  A set
        never reorders on ``discard``, so a node's *rank* — its position
        in the first iteration — fixes every tie-break.  Here the work
        follows the edges instead of the sweeps: a node's degree is its
        count of physical and still-removable neighbors, only the live
        neighbors of removed nodes are re-tested (and only those close
        enough to k to have fallen below it), and the blocked pick pops
        a lazy heap keyed (cost / degree, rank).  Costs are >= 0 and
        degrees only fall, so keys only rise: a popped entry whose key
        is stale is pushed back with the fresh one."""
        ids = graph._ids
        adj = graph._adj
        node_list = graph._node_list
        phys_mask = graph.phys_mask
        removable: Set = set()
        for node in graph.nodes():
            if isinstance(node, VirtualReg):
                removable.add(node)
        rank = [0] * len(node_list)
        kof = [0] * len(node_list)
        order: List[int] = []  # graph ids in rank order
        alive = 0
        for r, node in enumerate(removable):
            i = ids[node]
            rank[i] = r
            kof[i] = self._k(node.rclass)
            order.append(i)
            alive |= 1 << i
        stack: List[Tuple] = []
        heap: Optional[List[Tuple]] = None
        live = phys_mask | alive

        def spill_key(i: int) -> float:
            return (costs.get(node_list[i], 0.0)
                    / max((adj[i] & live).bit_count(), 1))

        # A degree falls by at most one per removal, so a node of degree
        # d >= k, tested when ``removed`` was r, cannot drop below k
        # before r + d - k + 1 removals: it waits in wake[r + d - k] and
        # joins ``unsure`` (the nodes whose degree must be re-tested when
        # a neighbor goes) once ``removed`` passes that threshold.
        wake: Dict[int, int] = {}
        unsure = 0
        removed = 0
        low = []
        for i in order:
            slack = (adj[i] & live).bit_count() - kof[i]
            if slack < 0:
                low.append(i)
            else:
                wake[slack] = wake.get(slack, 0) | (1 << i)
        while alive:
            if low:
                # one sweep: nodes that fall below k meanwhile wait for
                # the next, as the historical snapshot list made them
                touched = 0
                for i in low:
                    stack.append((node_list[i], False))
                    alive ^= 1 << i
                    touched |= adj[i]
                now = removed + len(low)
            else:
                if heap is None:
                    heap = [(spill_key(i), rank[i], i)
                            for i in order if (alive >> i) & 1]
                    heapq.heapify(heap)
                while True:
                    key, r, i = heap[0]
                    if not (alive >> i) & 1:
                        heapq.heappop(heap)
                        continue
                    fresh = spill_key(i)
                    if fresh == key:
                        heapq.heappop(heap)
                        break
                    heapq.heapreplace(heap, (fresh, r, i))
                stack.append((node_list[i], True))
                alive ^= 1 << i
                touched = adj[i]
                now = removed + 1
            for due in range(removed, now):
                unsure |= wake.pop(due, 0)
            removed = now
            live = phys_mask | alive
            low = []
            for j in iter_bits(touched & alive & unsure):
                slack = (adj[j] & live).bit_count() - kof[j]
                if slack < 0:
                    low.append(j)
                else:
                    unsure ^= 1 << j
                    due = removed + slack
                    wake[due] = wake.get(due, 0) | (1 << j)
            low.sort(key=rank.__getitem__)
        return stack

    def _select(self, graph: InterferenceGraph, stack: List[Tuple]):
        assignment: Dict[VirtualReg, PhysReg] = {}
        actual_spills: List[VirtualReg] = []
        ids = graph._ids
        adj = graph._adj
        node_list = graph._node_list
        # color_mask[c]: the nodes occupying color c — the physical
        # registers of index c and the vregs colored c so far; a node's
        # color is the first one none of its neighbors occupies
        color_mask = [0] * max(self._k(rclass) for rclass in RegClass)
        for j in iter_bits(graph.phys_mask):
            c = node_list[j].index
            if c < len(color_mask):
                color_mask[c] |= 1 << j
        for node, potential in reversed(stack):
            i = ids[node]
            neighbors = adj[i]
            for c in range(self._k(node.rclass)):
                if not neighbors & color_mask[c]:
                    assignment[node] = PhysReg(c, node.rclass)
                    color_mask[c] |= 1 << i
                    break
            else:
                if node in self.no_spill:
                    raise AllocationError(
                        f"{self.fn.name}: spill temporary {node} is "
                        f"uncolorable; register pressure exceeds the machine")
                actual_spills.append(node)
        return assignment, actual_spills

    # .. spill code ..................................................................

    # .. rematerialization (Briggs): a value defined only by constant
    # loads is recomputed at each use instead of being stored/reloaded ..

    def _remat_templates(self) -> Dict[VirtualReg, Instruction]:
        """This spill round's rematerialization templates.  Recomputing
        one value at its uses touches no other value's definitions, so
        one map serves the whole round."""
        return remat_templates(self.fn) if self.rematerialize else {}

    def _rematerialize_reg(self, reg, template: Instruction) -> None:
        """Replace reg's defs with nothing and its uses with clones."""
        for block in self.fn.blocks:
            rewritten: List[Instruction] = []
            for instr in block.instructions:
                if instr.dsts == [reg] and instr.opcode is template.opcode \
                        and instr.imm == template.imm \
                        and instr.symbol == template.symbol:
                    continue  # the definition disappears
                if reg in instr.srcs:
                    temp = self.fn.new_vreg(reg.rclass)
                    self.no_spill.add(temp)
                    clone = template.copy()
                    clone.dsts = [temp]
                    rewritten.append(clone)
                    instr.replace_src(reg, temp)
                rewritten.append(instr)
            block.instructions = rewritten
        self.result.rematerialized.append(reg)

    def _insert_spill_code(self, spills: List[VirtualReg],
                           graph: InterferenceGraph) -> None:
        # the cached liveness is current here: nothing mutated the IR
        # since the graph build (or the coalesce pass that invalidated)
        self.slot_provider.begin_spill_round(self.fn, self.analysis)
        templates = self._remat_templates()
        remaining: List[VirtualReg] = []
        for reg in spills:
            template = templates.get(reg)
            if template is not None:
                self._rematerialize_reg(reg, template)
            else:
                remaining.append(reg)
        spills = remaining

        locations = {}
        for reg in spills:
            location = self.slot_provider.assign(reg, graph)
            locations[reg] = location
            self.result.locations[reg] = location
            self.result.spilled.append(reg)
        spill_set = set(spills)

        for block in self.fn.blocks:
            rewritten: List[Instruction] = []
            for instr in block.instructions:
                used = [r for r in instr.srcs if r in spill_set]
                defined = [r for r in instr.dsts if r in spill_set]
                temps: Dict[VirtualReg, VirtualReg] = {}
                pre: List[Instruction] = []
                post: List[Instruction] = []
                for reg in used:
                    if reg in temps:
                        continue
                    temp = self.fn.new_vreg(reg.rclass)
                    self.no_spill.add(temp)
                    temps[reg] = temp
                    load = self._make_load(temp, locations[reg])
                    pre.append(load)
                    self.slot_provider.note_spill_code(
                        reg, locations[reg], [], [load])
                for reg in defined:
                    temp = temps.get(reg)
                    if temp is None:
                        temp = self.fn.new_vreg(reg.rclass)
                        self.no_spill.add(temp)
                        temps[reg] = temp
                    store = self._make_store(temp, locations[reg])
                    post.append(store)
                    self.slot_provider.note_spill_code(
                        reg, locations[reg], [store], [])
                for reg, temp in temps.items():
                    instr.replace_src(reg, temp)
                    instr.replace_dst(reg, temp)
                if pre or post:
                    trace_counter("regalloc.spill_instrs",
                                  len(pre) + len(post))
                rewritten.extend(pre)
                rewritten.append(instr)
                rewritten.extend(post)
            block.instructions = rewritten
        # spill loads/stores (and rematerialized clones) changed the
        # instruction stream but not the block graph
        self.analysis.invalidate(cfg=False)

    def _make_store(self, temp, location: SpillLocation) -> Instruction:
        if location.kind == "ccm":
            return make_ccm_store(temp, location.offset)
        return make_spill(temp, location.offset)

    def _make_load(self, temp, location: SpillLocation) -> Instruction:
        if location.kind == "ccm":
            return make_ccm_load(temp, location.offset)
        return make_reload(temp, location.offset)

    # .. final rewrite ................................................................

    def _rewrite(self, assignment: Dict[VirtualReg, PhysReg]) -> None:
        for block in self.fn.blocks:
            kept = []
            for instr in block.instructions:
                for i, reg in enumerate(instr.srcs):
                    if isinstance(reg, VirtualReg):
                        instr.srcs[i] = assignment[reg]
                for i, reg in enumerate(instr.dsts):
                    if isinstance(reg, VirtualReg):
                        instr.dsts[i] = assignment[reg]
                if instr.is_move and instr.srcs[0] == instr.dsts[0]:
                    continue
                kept.append(instr)
            block.instructions = kept
        self.fn.params = [assignment.get(p, p) if isinstance(p, VirtualReg)
                          else p for p in self.fn.params]


def remat_templates(fn: Function) -> Dict[VirtualReg, Instruction]:
    """Every value of ``fn`` defined only by identical constant loads
    (never-killed constants), mapped to its first definition — the
    instruction to clone at each use.  One pass over the program."""
    remat_ops = (Opcode.LOADI, Opcode.LOADFI, Opcode.LOADG)
    templates: Dict[VirtualReg, Instruction] = {}
    barred: Set[VirtualReg] = set()
    for _, instr in fn.instructions():
        for reg in instr.dsts:
            if reg in barred:
                continue
            prev = templates.get(reg)
            if (instr.opcode not in remat_ops or len(instr.dsts) != 1
                    or (prev is not None
                        and (instr.opcode is not prev.opcode
                             or instr.imm != prev.imm
                             or instr.symbol != prev.symbol))):
                barred.add(reg)
                templates.pop(reg, None)
            elif prev is None:
                templates[reg] = instr
    return templates


def allocate_function(fn: Function, machine: MachineConfig,
                      slot_provider=None, graph_hook=None,
                      rematerialize: bool = True) -> AllocationResult:
    """Allocate registers for ``fn`` in place; returns the result record."""
    return ChaitinBriggsAllocator(fn, machine, slot_provider, graph_hook,
                                  rematerialize).run()
