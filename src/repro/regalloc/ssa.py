"""The SSA-based register allocator family (the second backend).

Follows Bouchez, Darte & Rastello (*On the Complexity of Spill
Everywhere under SSA Form*, see PAPERS.md): under strict SSA the
interference graph is chordal, so

* register *pressure* (MAXLIVE, the maximum number of same-class values
  simultaneously live at any program point) equals the chromatic
  number — spilling can be decided **before** coloring, from exact
  per-point pressure, instead of Chaitin's iterate-until-colorable loop;
* greedy coloring in dominance order (each value's dominating
  neighbors are already colored when it is reached) never needs more
  than MAXLIVE colors.

The allocator therefore runs in three decoupled stages:

1. **Spill in SSA form** until pressure fits the machine: MAXLIVE per
   class at every point, plus the call-clobber cap (values live across
   a call must fit in the callee-saved file).  Candidates are ranked by
   the ``10 ** depth`` frequency cost model with Braun–Hack
   furthest-next-use tie-breaking (see ``analysis.nextuse``); values
   defined only by constants are *rematerialized* — recomputed at each
   use — instead of round-tripping through a slot, exactly as in the
   Chaitin-Briggs backend.  Two spill-code variants: ``split`` reloads
   once per using block (load/store range splitting) and hoists reloads
   of loop-invariant values to the preheader, ``everywhere`` reloads
   before every use.  Spill stores whose slot is never read back are
   deleted after out-of-SSA lowering (dead-store elision).
2. **Color greedily** on the chordal graph in dominator-tree preorder,
   biased toward move/phi partners so copies coalesce by construction.
   Precolored physical registers (calling convention, call clobbers)
   can still defeat the chordal guarantee locally; any value that finds
   no free color is spilled and the round repeats — on real input this
   fallback fires rarely and converges fast.
3. **Lower out of SSA**: phis become parallel copies on the (split)
   predecessor edges, sequentialized with cycle breaking through a free
   register or, when none exists, a scratch stack slot.

The CCM schemes plug in unchanged: the same slot-provider/graph-hook
interfaces as :class:`~repro.regalloc.chaitin_briggs.ChaitinBriggsAllocator`
carry the integrated allocator's CCM locations and footnote-5 rules.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis import (INFINITE_DISTANCE, AnalysisManager, iter_bits,
                        split_critical_edges)
from ..analysis.ssa import build_ssa
from ..ir import (Function, Instruction, Opcode, PhysReg, RegClass,
                  VirtualReg, make_move, make_reload, make_spill)
from ..machine import MachineConfig
from ..trace import trace_counter, trace_span
from .chaitin_briggs import (AllocationError, AllocationResult, SpillLocation,
                             StackSlotProvider, _align, remat_templates)
from .interference import InterferenceGraph, build_interference_graph
from .spill_costs import compute_spill_costs

_CLASSES = (RegClass.INT, RegClass.FLOAT)


def _is_own_store(instr: Instruction, reg,
                  location: SpillLocation) -> bool:
    """True when ``instr`` is ``reg``'s own spill store (emitted by an
    earlier round right after the def)."""
    from ..ir import CCM_STORES, SPILL_STORES
    ops = CCM_STORES if location.kind == "ccm" else SPILL_STORES
    return (instr.opcode in ops and instr.imm == location.offset
            and instr.srcs == [reg])


@dataclass
class SsaAllocationResult(AllocationResult):
    """AllocationResult plus the SSA backend's own metrics."""

    #: exact per-class MAXLIVE of the final (post-spill) program
    maxlive: Dict[RegClass, int] = field(default_factory=dict)
    #: parallel-copy instructions emitted while lowering out of SSA
    copies_resolved: int = 0
    #: spill/CCM stores deleted because their slot is never read back
    stores_elided: int = 0
    spill_mode: str = "split"


class SsaAllocator:
    """Allocates one function.  See module docstring for the stages."""

    MAX_ROUNDS = 60

    def __init__(self, fn: Function, machine: MachineConfig,
                 slot_provider=None, graph_hook=None,
                 rematerialize: bool = True,
                 manager: Optional[AnalysisManager] = None,
                 spill_mode: str = "split"):
        if spill_mode not in ("split", "everywhere"):
            raise ValueError(f"unknown spill mode {spill_mode!r}")
        self.fn = fn
        self.machine = machine
        self.slot_provider = slot_provider or StackSlotProvider(fn)
        self.graph_hook = graph_hook
        self.rematerialize = rematerialize
        self.spill_mode = spill_mode
        self.no_spill: Set[VirtualReg] = set()
        #: spilled values whose remaining live range is already minimal
        #: (everywhere-mode, or demoted by a re-spill) — pressure
        #: relief can gain nothing more from them
        self._min_range: Set[VirtualReg] = set()
        #: reload temp -> the spilled value it carries.  Only *reused*
        #: temps (split mode) are recorded: their ranges stretch to the
        #: last use in the block, so when too many of them overlap the
        #: temp can be demoted to per-use reloads of the same slot
        self._temp_origin: Dict[VirtualReg, VirtualReg] = {}
        #: per-round cache of constant-defined values (remat candidates)
        self._remat_map: Optional[Dict[VirtualReg, Instruction]] = None
        self._scratch: Dict[RegClass, int] = {}
        self.result = SsaAllocationResult(fn, spill_mode=spill_mode)
        self.analysis = manager or AnalysisManager(fn)
        if spill_mode == "split" and hasattr(self.slot_provider,
                                             "conservative_owners"):
            self.slot_provider.conservative_owners = True
            # share the temp->owner map so owner-conflict checks see
            # reused/hoisted temps' ranges (demotion grows loads there)
            self.slot_provider.temp_origin = self._temp_origin

    # -- public entry --------------------------------------------------------

    def run(self) -> SsaAllocationResult:
        with trace_span("regalloc.allocate", fn=self.fn.name):
            result = self._run()
        self._trace_result(result)
        return result

    def _run(self) -> SsaAllocationResult:
        # phi lowering requires split critical edges; splitting changes
        # the block graph, SSA construction only the instructions
        split_critical_edges(self.fn)
        self.analysis.invalidate(cfg=True)
        build_ssa(self.fn)
        self._materialize_undefs()
        self.analysis.invalidate(cfg=False)
        for _ in range(self.MAX_ROUNDS):
            self.result.rounds += 1
            graph = self._build()
            spills = self._pressure_spills()
            if spills:
                trace_counter("regalloc.spill_rounds")
                self._insert_spill_code(spills, graph)
                continue
            self._add_boundary_edges(graph)
            assignment, failed = self._color(graph)
            if not failed:
                self._finalize(assignment)
                self.result.assignment = assignment
                return self.result
            # precolored constraints defeated the chordal bound at some
            # def point: spill the uncolorable values and re-run
            trace_counter("regalloc.spill_rounds")
            self._insert_spill_code(failed, graph)
        raise AllocationError(
            f"{self.fn.name}: no fixed point after {self.MAX_ROUNDS} rounds")

    def _trace_result(self, result: SsaAllocationResult) -> None:
        trace_counter("regalloc.rounds", result.rounds)
        trace_counter("regalloc.coalesced", result.coalesced)
        trace_counter("regalloc.spilled", len(result.spilled))
        trace_counter("regalloc.rematerialized", len(result.rematerialized))
        ccm = sum(1 for loc in result.locations.values()
                  if loc.kind == "ccm")
        trace_counter("regalloc.ccm_spills", ccm)
        trace_counter("regalloc.stack_spills", len(result.spilled) - ccm)
        trace_counter("regalloc.frame_bytes", self.fn.frame_size)
        trace_counter("regalloc.ssa.maxlive",
                      max(result.maxlive.values(), default=0))
        trace_counter("regalloc.ssa.spills", len(result.spilled))
        trace_counter("regalloc.ssa.copies", result.copies_resolved)

    def _materialize_undefs(self) -> None:
        """Give every use of an undefined name a real def at entry.

        The renaming walk leaves a use with no reaching def pointing
        at the original variable name, which then has no def anywhere
        in the function.  Such a range stretches from entry to the use
        along *every* path, so it is not a dominator subtree and the
        interference graph loses the chordal guarantee that strict SSA
        provides.  Materialising a zero at entry makes the form strict;
        the value read was undefined to begin with, so the constant is
        as good as any."""
        fn = self.fn
        defined: Set[VirtualReg] = set(
            p for p in fn.params if isinstance(p, VirtualReg))
        used: List[VirtualReg] = []
        seen: Set[VirtualReg] = set()
        for block in fn.blocks:
            for instr in block.instructions:
                for reg in instr.dsts:
                    if isinstance(reg, VirtualReg):
                        defined.add(reg)
                for reg in instr.srcs:
                    if isinstance(reg, VirtualReg) and reg not in seen:
                        seen.add(reg)
                        used.append(reg)
        at = 0
        for reg in used:
            if reg in defined:
                continue
            if reg.rclass is RegClass.INT:
                instr = Instruction(Opcode.LOADI, [reg], imm=0,
                                    comment="undefined use")
            else:
                instr = Instruction(Opcode.LOADFI, [reg], imm=0.0,
                                    comment="undefined use")
            fn.entry.instructions.insert(at, instr)
            at += 1
            trace_counter("regalloc.ssa.undefs")

    # -- shared plumbing -----------------------------------------------------

    def _build(self) -> InterferenceGraph:
        return build_interference_graph(self.fn, self.machine,
                                        self.graph_hook,
                                        manager=self.analysis)

    def _k(self, rclass: RegClass) -> int:
        return self.machine.n_regs(rclass)

    # -- stage 1: spill in SSA form ------------------------------------------

    def _pressure_spills(self) -> List[VirtualReg]:
        """Exact per-point pressure scan; returns the values to spill
        (empty when MAXLIVE and the call-crossing cap already fit).

        Candidates are ranked by the ``10 ** depth`` frequency cost
        (halved for rematerializable constants, which cost no memory
        round-trip), ties broken Braun–Hack-style toward the *furthest
        next use* from the overloaded point — evicting what the program
        will not touch for the longest time.

        Also records the scan's MAXLIVE per class on the result — on
        the final round that is the exact post-spill MAXLIVE."""
        bits = self.analysis.liveness().bits
        index = bits.index
        ids = index.ids
        regs = index.regs
        cmask = index.class_mask
        vmask = index.vreg_mask
        kof = {c: self._k(c) for c in _CLASSES}
        # values live across a call interfere with every caller-saved
        # register of their class, so they must fit in the callee-saved file
        cap = {c: max(0, kof[c] - self.machine.callee_saved_start)
               for c in _CLASSES}

        no_mask = 0
        for r in self.no_spill | self._min_range:
            j = ids.get(r)
            if j is not None:
                no_mask |= 1 << j

        costs: Optional[Dict] = None
        remat: Optional[Dict] = None
        nu_out: Optional[Dict] = None
        # lazily built per block: dense id -> ascending use positions
        use_positions: Dict[str, Dict[int, List[int]]] = {}
        chosen_mask = 0
        chosen: List[VirtualReg] = []
        maxlive = {c: 0 for c in _CLASSES}

        def positions_of(block) -> Dict[int, List[int]]:
            pos = use_positions.get(block.label)
            if pos is None:
                pos = {}
                for p, instr in enumerate(block.instructions):
                    if instr.is_phi:
                        continue
                    for s in instr.srcs:
                        pos.setdefault(ids[s], []).append(p)
                use_positions[block.label] = pos
            return pos

        def next_use_distance(j: int, block, idx: int) -> int:
            plist = positions_of(block).get(j)
            if plist:
                p = bisect_left(plist, idx)
                if p < len(plist):
                    return plist[p] - idx
            tail = nu_out[block.label].get(j)
            if tail is None:
                return INFINITE_DISTANCE
            return min(len(block.instructions) - idx + tail,
                       INFINITE_DISTANCE)

        def relieve(point: int, rclass: RegClass, limit: int,
                    block, idx: int) -> None:
            nonlocal chosen_mask, costs, remat, nu_out
            m = point & cmask[rclass]
            count = (m & ~chosen_mask).bit_count()
            if count <= limit:
                return
            if costs is None:
                costs = compute_spill_costs(self.fn, self.no_spill,
                                            loop_info=self.analysis.loops())
                remat = self._remat_templates()
                nu_out = self.analysis.next_use()
            cand = m & vmask & ~no_mask & ~chosen_mask
            while count > limit and cand:
                best_j = best_key = None
                for j in iter_bits(cand):
                    reg = regs[j]
                    cost = costs.get(reg, 0.0)
                    if reg in remat:
                        cost *= 0.5
                    key = (cost, -next_use_distance(j, block, idx), j)
                    if best_key is None or key < best_key:
                        best_key, best_j = key, j
                bit = 1 << best_j
                cand &= ~bit
                chosen_mask |= bit
                chosen.append(regs[best_j])
                count -= 1
            if count > limit:
                # every remaining value is a no-spill temp, a minimal
                # range, or precolored.  Reused reload temps can still
                # be demoted by the coloring fallback; anything beyond
                # that is irreducible — fail loudly instead of burning
                # rounds to an opaque MAX_ROUNDS exhaustion
                stuck = m & ~chosen_mask
                demotable = sum(1 for j in iter_bits(stuck & vmask)
                                if regs[j] in self._temp_origin)
                if count - demotable > limit:
                    raise AllocationError(
                        f"{self.fn.name}: register pressure is "
                        f"irreducible at {block.label}[{idx}]: "
                        f"{count} {rclass.name} values live, limit "
                        f"{limit}, and no spillable candidate remains")

        reachable = self.analysis.cfg().reachable()
        params_mask = index.mask_of(self.fn.params)
        entry = self.fn.entry
        for block in self.fn.blocks:
            if block.label not in reachable:
                continue
            live = bits.live_out[block.label]
            for idx in range(len(block.instructions) - 1, -1, -1):
                instr = block.instructions[idx]
                dsts_mask = 0
                for d in instr.dsts:
                    dsts_mask |= 1 << ids[d]
                point = live | dsts_mask
                for c in _CLASSES:
                    p = (point & cmask[c]).bit_count()
                    if p > maxlive[c]:
                        maxlive[c] = p
                    if p > kof[c]:
                        relieve(point, c, kof[c], block, idx)
                if instr.is_call:
                    crossing = live & ~dsts_mask
                    for c in _CLASSES:
                        if ((crossing & cmask[c] & ~chosen_mask).bit_count()
                                > cap[c]):
                            relieve(crossing, c, cap[c], block, idx)
                live &= ~dsts_mask
                if not instr.is_phi:
                    for s in instr.srcs:
                        live |= 1 << ids[s]
            # block-entry point: walked-back live (== live_in), plus the
            # implicitly-defined parameters at function entry
            final = live | (params_mask if block is entry else 0)
            for c in _CLASSES:
                p = (final & cmask[c]).bit_count()
                if p > maxlive[c]:
                    maxlive[c] = p
                if p > kof[c]:
                    relieve(final, c, kof[c], block, 0)
        self.result.maxlive = maxlive
        return chosen

    # .. rematerialization (Briggs): a value defined only by constant
    # loads is recomputed at each use instead of being stored/reloaded ..

    def _remat_templates(self) -> Dict[VirtualReg, Instruction]:
        """All values currently defined only by identical constant
        loads (never-killed constants) — one program pass, cached until
        the next spill-code mutation."""
        if not self.rematerialize:
            return {}
        if self._remat_map is None:
            self._remat_map = remat_templates(self.fn)
        return self._remat_map

    def _rematerialize_spills(self,
                              spills: List[VirtualReg]) -> List[VirtualReg]:
        """Peel the rematerializable values off a spill list: recompute
        them at their uses and return what still needs a slot."""
        templates = self._remat_templates()
        keep: List[VirtualReg] = []
        pairs: List[Tuple[VirtualReg, Instruction]] = []
        for reg in spills:
            template = templates.get(reg)
            if (template is None or reg in self._temp_origin
                    or reg in self.result.locations):
                # already slotted (respill) or demotable temp: the
                # existing demotion machinery handles those
                keep.append(reg)
            else:
                pairs.append((reg, template))
        for reg, template in pairs:
            self._rematerialize_reg(reg, template)
        return keep

    def _rematerialize_reg(self, reg: VirtualReg,
                           template: Instruction) -> None:
        """Delete ``reg``'s constant def and recompute it right before
        every use — the Chaitin-Briggs remat made phi-aware: a phi
        source is recomputed at the end of the predecessor."""
        fn = self.fn
        for block in fn.blocks:
            rewritten: List[Instruction] = []
            for instr in block.instructions:
                if instr.dsts == [reg]:
                    continue  # remat-able ⇒ every def is the template
                if not instr.is_phi and reg in instr.srcs:
                    temp = fn.new_vreg(reg.rclass)
                    self.no_spill.add(temp)
                    clone = template.copy()
                    clone.dsts = [temp]
                    rewritten.append(clone)
                    instr.replace_src(reg, temp)
                rewritten.append(instr)
            block.instructions = rewritten
        for block in fn.blocks:
            for phi in block.phis():
                for idx, (src, pred) in enumerate(zip(phi.srcs,
                                                      phi.phi_labels)):
                    if src != reg:
                        continue
                    pblock = fn.block(pred)
                    temp = fn.new_vreg(reg.rclass)
                    self.no_spill.add(temp)
                    clone = template.copy()
                    clone.dsts = [temp]
                    at = len(pblock.instructions)
                    if pblock.terminator is not None:
                        at -= 1
                    pblock.instructions.insert(at, clone)
                    phi.srcs[idx] = temp
        self.result.rematerialized.append(reg)
        trace_counter("regalloc.ssa.remat")

    def _insert_spill_code(self, spills: List[VirtualReg],
                           graph: InterferenceGraph) -> None:
        """SSA-preserving spill code: the value keeps its single def and
        is stored right after it; every use reads a fresh short-lived
        temporary (shared per using block in ``split`` mode)."""
        if self.rematerialize:
            n_before = len(spills)
            spills = self._rematerialize_spills(spills)
            if len(spills) != n_before:
                # remat rewrote uses: downstream liveness queries (call
                # crossings, reload planning) must see the new program
                self._remat_map = None
                self.analysis.invalidate(cfg=False)
            if not spills:
                return
        self.slot_provider.begin_spill_round(self.fn, self.analysis)
        locations: Dict[VirtualReg, SpillLocation] = {}
        respill: Set[VirtualReg] = set()
        demoted: Set[VirtualReg] = set()
        for reg in spills:
            origin = self._temp_origin.get(reg)
            if origin is not None:
                # an uncolorable *reused* reload temp: its extended
                # range is the problem, not the value — retarget every
                # use to a fresh per-use reload of the origin's slot
                # and drop the then-dead defining load
                locations[reg] = self.result.locations[origin]
                respill.add(reg)
                demoted.add(reg)
                continue
            loc = self.result.locations.get(reg)
            if loc is None:
                loc = self.slot_provider.assign(reg, graph)
                self.result.locations[reg] = loc
                self.result.spilled.append(reg)
            else:
                # spilled before but the split-mode def-block range is
                # still too long: demote remaining uses to reloads
                respill.add(reg)
            locations[reg] = loc
        spill_set = set(locations)
        split = self.spill_mode == "split"
        temps_by_block: Dict[str, Dict[VirtualReg, VirtualReg]] = {}
        hoisted: Dict[str, Dict[VirtualReg, VirtualReg]] = {}
        exports: Dict[str, Dict[VirtualReg, VirtualReg]] = {}
        if split:
            hoisted, exports = self._hoist_loop_reloads(locations, respill)

        fn = self.fn
        entry = fn.entry
        for block in fn.blocks:
            # loop blocks start with the preheader's hoisted reloads
            # already resident
            temp_of: Dict[VirtualReg, VirtualReg] = dict(
                hoisted.get(block.label, ()))
            out: List[Instruction] = []
            head_stores: List[Instruction] = []
            if block is entry:
                for p in fn.params:
                    if p in spill_set and p not in respill:
                        store = self._make_store(p, locations[p])
                        head_stores.append(store)
                        self.slot_provider.note_spill_code(
                            p, locations[p], [store], [])
                        if split:
                            temp_of[p] = p
            i = 0
            instrs = block.instructions
            while i < len(instrs) and instrs[i].is_phi:
                phi = instrs[i]
                out.append(phi)
                d = phi.dsts[0]
                if d in spill_set and d not in respill:
                    # phis define in parallel at block entry: the store
                    # goes after the whole phi prefix
                    store = self._make_store(d, locations[d])
                    head_stores.append(store)
                    self.slot_provider.note_spill_code(
                        d, locations[d], [store], [])
                    if split:
                        temp_of[d] = d
                i += 1
            if head_stores:
                trace_counter("regalloc.spill_instrs", len(head_stores))
                out.extend(head_stores)
            for instr in instrs[i:]:
                if demoted and instr.dsts and instr.dsts[0] in demoted:
                    continue  # the demoted temp's defining load
                pre: List[Instruction] = []
                post: List[Instruction] = []
                for reg in dict.fromkeys(r for r in instr.srcs
                                         if r in spill_set):
                    if _is_own_store(instr, reg, locations[reg]):
                        # a re-spilled value's existing def-adjacent
                        # store: it must keep reading the value itself,
                        # not a reload of the not-yet-written slot
                        continue
                    reuse = split and reg not in respill
                    temp = temp_of.get(reg) if reuse else None
                    if temp is None:
                        temp = fn.new_vreg(reg.rclass)
                        self.no_spill.add(temp)
                        load = self._make_load(temp, locations[reg])
                        pre.append(load)
                        self.slot_provider.note_spill_code(
                            reg, locations[reg], [], [load])
                        if reuse:
                            temp_of[reg] = temp
                            self._temp_origin[temp] = reg
                    instr.replace_src(reg, temp)
                if instr.is_call:
                    # resident copies die at calls: a temp kept alive
                    # across one would demand a callee-saved register
                    # the pressure scan cannot free (temps are no-spill)
                    temp_of.clear()
                for reg in instr.dsts:
                    if reg in spill_set and reg not in respill:
                        # the value keeps its def; store it right after
                        store = self._make_store(reg, locations[reg])
                        post.append(store)
                        self.slot_provider.note_spill_code(
                            reg, locations[reg], [store], [])
                        if split:
                            temp_of[reg] = reg
                if pre or post:
                    trace_counter("regalloc.spill_instrs",
                                  len(pre) + len(post))
                out.extend(pre)
                out.append(instr)
                out.extend(post)
            block.instructions = out
            temps_by_block[block.label] = temp_of

        # a hoisted reload sits at its preheader's end, so phi reads in
        # that predecessor may reuse it (unless a cheaper resident copy
        # already exists there)
        for label, temps in exports.items():
            tmap = temps_by_block.setdefault(label, {})
            for reg, temp in temps.items():
                tmap.setdefault(reg, temp)

        # phi sources are read at the end of the predecessor: reload
        # there (or reuse the predecessor's resident copy in split mode)
        for block in fn.blocks:
            for phi in block.phis():
                for idx, (src, pred) in enumerate(zip(phi.srcs,
                                                      phi.phi_labels)):
                    if src not in spill_set:
                        continue
                    tmap = temps_by_block.setdefault(pred, {})
                    reuse = split and src not in respill
                    temp = tmap.get(src) if reuse else None
                    if temp is None:
                        pblock = fn.block(pred)
                        temp = fn.new_vreg(src.rclass)
                        self.no_spill.add(temp)
                        load = self._make_load(temp, locations[src])
                        at = len(pblock.instructions)
                        if pblock.terminator is not None:
                            at -= 1
                        pblock.instructions.insert(at, load)
                        trace_counter("regalloc.spill_instrs")
                        self.slot_provider.note_spill_code(
                            src, locations[src], [], [load])
                        if reuse:
                            tmap[src] = temp
                            self._temp_origin[temp] = src
                    phi.srcs[idx] = temp

        for reg in locations:
            if not split or reg in respill:
                self._min_range.add(reg)
        self._remat_map = None
        self.analysis.invalidate(cfg=False)

    def _hoist_loop_reloads(self, locations: Dict[VirtualReg, SpillLocation],
                            respill: Set[VirtualReg]
                            ) -> Tuple[Dict[str, Dict], Dict[str, Dict]]:
        """Loop-invariant reload placement (split mode): a value defined
        outside a loop but used inside it is reloaded once in the
        preheader instead of once per using block per iteration.

        Conditions: the loop contains no calls (resident temps cannot
        survive one — the scan treats them as unspillable), its header
        has a unique non-loop predecessor, and that predecessor is
        dominated by the value's defining block so the hoisted load
        executes after the def-adjacent store.  The temp registers in
        ``_temp_origin`` so the coloring fallback can still demote it to
        per-use reloads when keeping it live across the whole loop
        overloads a point.

        Returns ``(hoisted, exports)``: per-loop-block resident maps to
        seed ``temp_of``, and per-preheader maps so phi reads at the
        preheader's end can reuse the same load."""
        loops = self.analysis.loops().loops
        candidates = [r for r in locations if r not in respill]
        if not loops or not candidates:
            return {}, {}
        fn = self.fn
        cfg = self.analysis.cfg()
        dom = self.analysis.dominators()
        cset = set(candidates)
        def_block: Dict[VirtualReg, str] = {
            p: fn.entry.label for p in fn.params if p in cset}
        use_blocks: Dict[VirtualReg, Set[str]] = {r: set() for r in candidates}
        has_call: Set[str] = set()
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.is_call:
                    has_call.add(block.label)
                if instr.is_phi:
                    for s, pred in zip(instr.srcs, instr.phi_labels):
                        if s in cset:
                            use_blocks[s].add(pred)
                else:
                    for s in instr.srcs:
                        if s in cset:
                            use_blocks[s].add(block.label)
                for d in instr.dsts:
                    if d in cset:
                        def_block[d] = block.label
        hoisted: Dict[str, Dict[VirtualReg, VirtualReg]] = {}
        exports: Dict[str, Dict[VirtualReg, VirtualReg]] = {}
        # outermost loops first: one preheader load covers the nest
        for loop in sorted(loops, key=lambda l: (-len(l.blocks), l.header)):
            if any(b in has_call for b in loop.blocks):
                continue
            outside = [p for p in cfg.preds[loop.header]
                       if p not in loop.blocks]
            if len(outside) != 1:
                continue
            pre = outside[0]
            loads: List[Instruction] = []
            for reg in candidates:
                db = def_block.get(reg)
                if (db is None or db in loop.blocks
                        or not (use_blocks[reg] & loop.blocks)
                        or reg in hoisted.get(loop.header, ())
                        or not dom.dominates(db, pre)):
                    continue
                temp = fn.new_vreg(reg.rclass)
                self.no_spill.add(temp)
                self._temp_origin[temp] = reg
                load = self._make_load(temp, locations[reg])
                loads.append(load)
                self.slot_provider.note_spill_code(
                    reg, locations[reg], [], [load])
                for b in loop.blocks:
                    hoisted.setdefault(b, {}).setdefault(reg, temp)
                exports.setdefault(pre, {}).setdefault(reg, temp)
                trace_counter("regalloc.ssa.hoisted")
            if loads:
                pblock = fn.block(pre)
                at = len(pblock.instructions)
                if pblock.terminator is not None:
                    at -= 1
                pblock.instructions[at:at] = loads
                trace_counter("regalloc.spill_instrs", len(loads))
        return hoisted, exports

    def _make_store(self, reg, location: SpillLocation) -> Instruction:
        if location.kind == "ccm":
            from ..ir import make_ccm_store
            return make_ccm_store(reg, location.offset)
        return make_spill(reg, location.offset)

    def _make_load(self, reg, location: SpillLocation) -> Instruction:
        if location.kind == "ccm":
            from ..ir import make_ccm_load
            return make_ccm_load(reg, location.offset)
        return make_reload(reg, location.offset)

    # -- stage 2: greedy coloring in dominance order -------------------------

    def _add_boundary_edges(self, graph: InterferenceGraph) -> None:
        """Phi-lowering copies at a predecessor's end write the phi
        destinations' registers; anything the terminator still reads
        must not share them.  After critical-edge splitting every
        phi predecessor ends in a bare jump, so this is defensive."""
        cfg = self.analysis.cfg()
        for block in self.fn.blocks:
            phis = block.phis()
            if not phis:
                continue
            dsts = [phi.dsts[0] for phi in phis]
            for pred in cfg.preds[block.label]:
                term = self.fn.block(pred).terminator
                if term is None:
                    continue
                for s in term.srcs:
                    for d in dsts:
                        graph.add_edge(s, d)

    def _color(self, graph: InterferenceGraph
               ) -> Tuple[Dict[VirtualReg, PhysReg], List[VirtualReg]]:
        """Greedy coloring in dominator-tree preorder (defs within a
        block in instruction order, parameters first).  Chordality makes
        this optimal on the vreg-only graph; precolored registers can
        still exhaust the palette at a def — such values are returned in
        ``failed`` for the spill fallback."""
        fn = self.fn
        order: List[VirtualReg] = []
        seen: Set[VirtualReg] = set()

        def visit(reg) -> None:
            if isinstance(reg, VirtualReg) and reg not in seen:
                seen.add(reg)
                order.append(reg)

        for p in fn.params:
            visit(p)
        for label in self.analysis.dom_preorder():
            for instr in fn.block(label).instructions:
                for d in instr.dsts:
                    visit(d)
        # stragglers: nodes without a dominating def (uses of undefined
        # names, unreachable-block defs) still need some register
        for node in graph.nodes():
            visit(node)

        ids = graph._ids
        adj = graph._adj
        node_list = graph._node_list
        color_of = [0] * len(node_list)
        pm = graph.phys_mask
        while pm:
            low = pm & -pm
            j = low.bit_length() - 1
            color_of[j] = node_list[j].index
            pm ^= low
        colored_mask = graph.phys_mask

        partners: Dict[object, List[object]] = {}
        for a, b in graph.moves:
            partners.setdefault(a, []).append(b)
            partners.setdefault(b, []).append(a)

        assignment: Dict[VirtualReg, PhysReg] = {}
        failed: List[VirtualReg] = []
        for reg in order:
            i = ids.get(reg)
            if i is None:
                continue
            k = self._k(reg.rclass)
            taken: Set[int] = set()
            mask = adj[i] & colored_mask
            while mask:
                low = mask & -mask
                taken.add(color_of[low.bit_length() - 1])
                mask ^= low
            color = None
            prefs: Set[int] = set()
            for partner in partners.get(reg, ()):
                if isinstance(partner, PhysReg):
                    prefs.add(partner.index)
                else:
                    j = ids.get(partner)
                    if j is not None and (colored_mask >> j) & 1:
                        prefs.add(color_of[j])
            for c in sorted(prefs):
                if c < k and c not in taken:
                    color = c
                    self.result.coalesced += 1
                    break
            if color is None:
                color = next((c for c in range(k) if c not in taken), None)
            if color is None:
                if reg in self.no_spill and reg not in self._temp_origin:
                    # a *minimal* (per-use) reload temp found no color:
                    # its own range cannot shrink, so the overload must
                    # come from *reused* temps crowding its neighborhood
                    # — demote those to per-use reloads and re-run
                    victims = []
                    has_reused = False
                    m = adj[i]
                    while m:
                        low = m & -m
                        n = node_list[low.bit_length() - 1]
                        m ^= low
                        if (isinstance(n, VirtualReg)
                                and n.rclass is reg.rclass
                                and n in self._temp_origin):
                            has_reused = True
                            if n not in failed:
                                victims.append(n)
                    if not has_reused:
                        raise AllocationError(
                            f"{fn.name}: spill temporary {reg} is "
                            f"uncolorable; register pressure exceeds "
                            f"the machine")
                    # victims may be empty when every reused neighbor
                    # is already queued for demotion — that suffices
                    failed.extend(victims)
                    continue
                if reg in self._min_range:
                    # re-spilling an already-minimal range is a no-op
                    # (the value is just its def and the adjacent
                    # store): relieve the neighborhood instead — demote
                    # reused temps crowding it, else spill a neighbor
                    # whose range can still shrink
                    victims = []
                    spillable = []
                    has_reused = False
                    m = adj[i]
                    while m:
                        low = m & -m
                        n = node_list[low.bit_length() - 1]
                        m ^= low
                        if (not isinstance(n, VirtualReg)
                                or n.rclass is not reg.rclass):
                            continue
                        if n in self._temp_origin:
                            has_reused = True
                            if n not in failed:
                                victims.append(n)
                        elif (n not in self.no_spill
                                and n not in self._min_range
                                and n not in failed):
                            spillable.append(n)
                    if has_reused:
                        failed.extend(victims)
                        continue
                    if spillable:
                        failed.extend(spillable)
                        continue
                    raise AllocationError(
                        f"{fn.name}: {reg} is uncolorable at its "
                        f"definition: its spilled range is already "
                        f"minimal and no demotable temp or shrinkable "
                        f"neighbor remains")
                failed.append(reg)
                continue
            assignment[reg] = PhysReg(color, reg.rclass)
            color_of[i] = color
            colored_mask |= 1 << i
        return assignment, failed

    # -- stage 3: out of SSA -------------------------------------------------

    def _finalize(self, assignment: Dict[VirtualReg, PhysReg]) -> None:
        self.result.copies_resolved += self._lower_phis(assignment)
        self._rewrite(assignment)
        self._elide_dead_stores()
        self.analysis.invalidate(cfg=False)

    def _elide_dead_stores(self) -> None:
        """Delete spill/CCM stores to slots never read back.

        Spill slots are function-private, so a store whose (kind,
        offset) has no load anywhere in the function can only be dead:
        respilling demotes a resident range to per-use reloads without
        revisiting the def-adjacent store, and loop hoisting can strand
        a block-local reload the same way.  Runs on the final lowered
        program so parallel-copy scratch traffic is visible."""
        from ..ir import CCM_LOADS, CCM_STORES, SPILL_LOADS, SPILL_STORES
        loaded: Set[Tuple[str, int]] = set()
        for block in self.fn.blocks:
            for instr in block.instructions:
                if instr.opcode in SPILL_LOADS:
                    loaded.add(("stack", instr.imm))
                elif instr.opcode in CCM_LOADS:
                    loaded.add(("ccm", instr.imm))
        elided = 0
        for block in self.fn.blocks:
            kept: List[Instruction] = []
            for instr in block.instructions:
                if ((instr.opcode in SPILL_STORES
                     and ("stack", instr.imm) not in loaded)
                        or (instr.opcode in CCM_STORES
                            and ("ccm", instr.imm) not in loaded)):
                    elided += 1
                    continue
                kept.append(instr)
            block.instructions = kept
        if elided:
            self.result.stores_elided = elided
            trace_counter("regalloc.ssa.stores_elided", elided)

    def _lower_phis(self, assignment: Dict[VirtualReg, PhysReg]) -> int:
        """Replace phis with sequentialized parallel copies on each
        (already split) predecessor edge, in assigned-register space."""
        fn = self.fn
        cfg = self.analysis.cfg()
        # pre-mutation liveness: describes the phi-form program the
        # assignment was computed for, which is exactly what the
        # cycle-breaking free-register search must reason about
        liveness = self.analysis.liveness()
        used: Set = set()
        for block in fn.blocks:
            for instr in block.instructions:
                used.update(instr.srcs)
        copies = 0
        for block in fn.blocks:
            phis = block.phis()
            if not phis:
                continue
            for pred in cfg.preds[block.label]:
                pairs: List[Tuple[PhysReg, PhysReg]] = []
                seen_dst: Set[PhysReg] = set()
                for phi in phis:
                    d = phi.dsts[0]
                    if d not in used:
                        continue  # dead phi: no copy, the slot is free
                    src = None
                    for s, lbl in zip(phi.srcs, phi.phi_labels):
                        if lbl == pred:
                            src = s
                            break
                    if src is None:
                        continue
                    pd = assignment.get(d, d)
                    ps = assignment.get(src, src)
                    if pd == ps or pd in seen_dst:
                        continue
                    seen_dst.add(pd)
                    pairs.append((pd, ps))
                if pairs:
                    copies += self._emit_parallel_copy(
                        fn.block(pred), pairs, liveness, assignment)
            block.instructions = [ins for ins in block.instructions
                                  if not ins.is_phi]
        return copies

    def _emit_parallel_copy(self, pred_block, pairs, liveness,
                            assignment) -> int:
        """Sequentialize one parallel copy at the end of ``pred_block``.

        Copies whose source register is not overwritten by a pending
        copy emit immediately; a cycle is broken by saving one source
        into a free register of its class or, failing that, a per-class
        scratch stack slot (re-read via a reload)."""
        pending: Dict[PhysReg, object] = dict(pairs)
        readers = Counter(s for s in pending.values())
        ready = [d for d in pending if readers.get(d, 0) == 0]
        seq: List[Instruction] = []
        busy: Optional[Set[PhysReg]] = None

        def compute_busy() -> Set[PhysReg]:
            b: Set[PhysReg] = set()
            for r in liveness.live_out[pred_block.label]:
                phys = assignment.get(r, r)
                if isinstance(phys, PhysReg):
                    b.add(phys)
            for d, s in pairs:
                b.add(d)
                if isinstance(s, PhysReg):
                    b.add(s)
            term = pred_block.terminator
            if term is not None:
                for s in term.srcs:
                    phys = assignment.get(s, s)
                    if isinstance(phys, PhysReg):
                        b.add(phys)
            return b

        while pending:
            while ready:
                d = ready.pop()
                s = pending.pop(d)
                if isinstance(s, tuple):  # ("slot", offset)
                    seq.append(make_reload(d, s[1]))
                    continue
                seq.append(make_move(d, s))
                readers[s] -= 1
                if s in pending and readers[s] == 0:
                    ready.append(s)
            if not pending:
                break
            # every remaining source is still awaited: a cycle.  Save
            # one source value, retarget its readers, and the cycle opens
            d0 = next(iter(pending))
            s0 = pending[d0]
            if busy is None:
                busy = compute_busy()
            rc = s0.rclass
            free = next((c for c in range(self._k(rc))
                         if PhysReg(c, rc) not in busy), None)
            if free is not None:
                temp: object = PhysReg(free, rc)
                busy.add(temp)
                seq.append(make_move(temp, s0))
            else:
                offset = self._scratch_offset(rc)
                seq.append(make_spill(s0, offset))
                temp = ("slot", offset)
            moved = 0
            for d, s in list(pending.items()):
                if s == s0:
                    pending[d] = temp
                    moved += 1
            readers[s0] -= moved
            if isinstance(temp, PhysReg):
                readers[temp] += moved
            if s0 in pending and readers[s0] == 0:
                ready.append(s0)

        at = len(pred_block.instructions)
        if pred_block.terminator is not None:
            at -= 1
        pred_block.instructions[at:at] = seq
        return len(seq)

    def _scratch_offset(self, rclass: RegClass) -> int:
        offset = self._scratch.get(rclass)
        if offset is None:
            size = rclass.size_bytes
            offset = _align(self.fn.frame_size, size)
            self.fn.frame_size = offset + size
            self._scratch[rclass] = offset
        return offset

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


def allocate_function_ssa(fn: Function, machine: MachineConfig,
                          slot_provider=None, graph_hook=None,
                          rematerialize: bool = True,
                          manager: Optional[AnalysisManager] = None,
                          spill_mode: str = "split") -> SsaAllocationResult:
    """Allocate registers for ``fn`` in place with the SSA backend."""
    return SsaAllocator(fn, machine, slot_provider, graph_hook,
                        rematerialize, manager=manager,
                        spill_mode=spill_mode).run()
