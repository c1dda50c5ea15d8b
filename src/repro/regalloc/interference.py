"""Interference-graph construction for register allocation.

Nodes are live ranges: virtual registers plus any physical registers the
calling-convention lowering introduced (precolored nodes).  Edges only
join nodes of the same register class — INT and FLOAT files are colored
independently in one graph.

Call instructions clobber every caller-saved physical register, so each
value live across a call interferes with the whole caller-saved file of
its class; with the default all-caller-saved convention this forces such
values to memory, which is precisely the spill population the paper's
CCM allocators then compete over.

Representation: adjacency is one Python int (a bit mask over the graph's
dense node numbering) per node.  The numbering starts with the
function's registers in ``fn.all_registers()`` order — the same order
the liveness :class:`~repro.analysis.bitset.DenseIndex` assigns, so
per-instruction live masks feed the adjacency accumulation directly —
and appends pseudo nodes / clobbered physical registers as the walk
discovers them, matching the node order the historical dict-of-sets
representation produced (allocator tie-breaking, and therefore compiled
artifacts, depend on that order).  The historical set-based builder is
kept as the reference oracle in ``tests/liveness_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis import (CFG, AnalysisManager, compute_liveness_masks,
                        iter_bits)
from ..analysis.bitset import MaskSetView
from ..ir import Function, PhysReg, RegClass
from ..machine import MachineConfig


class PseudoNode:
    """Base class for non-register graph nodes (e.g. CCM locations).

    The paper (section 3.2): "The allocator ignores these edges during
    allocation and uses them during spill code insertion."  Simplify,
    select, and the coalescing tests treat pseudo nodes as invisible;
    only the spill-slot provider reads their edges.
    """

    rclass = None


class InterferenceGraph:
    """Undirected graph over live ranges, plus the move-related pairs.

    Public API (``interferes`` / ``neighbors`` / ``degree`` / ``nodes``)
    is unchanged from the set-based implementation; the mask-level
    accessors (``id_of`` / ``node_at`` / ``neighbor_mask`` /
    ``color_degree`` / ``merge_into``) are what the allocator's hot
    loops use.
    """

    __slots__ = ("_ids", "_node_list", "_adj", "pseudo_mask", "phys_mask",
                 "vreg_mask", "moves")

    def __init__(self):
        self._ids: Dict[object, int] = {}      # insertion-ordered
        self._node_list: List[object] = []     # id -> node (merged ids stay)
        self._adj: List[int] = []              # id -> neighbor mask
        self.pseudo_mask = 0
        self.phys_mask = 0
        self.vreg_mask = 0
        self.moves: Set[Tuple] = set()  # unordered move-related pairs

    # -- node management -----------------------------------------------------

    def ensure(self, node) -> int:
        """Intern ``node``, returning its dense id."""
        i = self._ids.get(node)
        if i is None:
            i = len(self._node_list)
            self._ids[node] = i
            self._node_list.append(node)
            self._adj.append(0)
            bit = 1 << i
            if isinstance(node, PseudoNode):
                self.pseudo_mask |= bit
            elif isinstance(node, PhysReg):
                self.phys_mask |= bit
            else:
                self.vreg_mask |= bit
        return i

    def add_node(self, node) -> None:
        self.ensure(node)

    def id_of(self, node) -> int:
        return self._ids[node]

    def node_at(self, i: int):
        return self._node_list[i]

    def nodes(self) -> List:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node) -> bool:
        return node in self._ids

    # -- edges ---------------------------------------------------------------

    def add_edge(self, a, b) -> None:
        if a == b:
            return
        if a.rclass is not b.rclass:
            return
        ia = self.ensure(a)
        ib = self.ensure(b)
        self._adj[ia] |= 1 << ib
        self._adj[ib] |= 1 << ia

    def add_pseudo_edge(self, node, pseudo: "PseudoNode") -> None:
        """Edge between a register and a pseudo node (class-agnostic: a
        CCM byte range conflicts with values of either class)."""
        ia = self.ensure(node)
        ib = self.ensure(pseudo)
        self._adj[ia] |= 1 << ib
        self._adj[ib] |= 1 << ia

    def interferes(self, a, b) -> bool:
        ia = self._ids.get(a)
        ib = self._ids.get(b)
        if ia is None or ib is None:
            return False
        return (self._adj[ia] >> ib) & 1 == 1

    def neighbor_mask(self, i: int) -> int:
        return self._adj[i]

    def neighbors(self, node) -> Set:
        """The neighbor set, materialized.  Hot paths iterate
        :meth:`neighbor_mask` bits instead."""
        i = self._ids.get(node)
        if i is None:
            return set()
        nodes = self._node_list
        return {nodes[j] for j in iter_bits(self._adj[i])}

    def degree(self, node) -> int:
        i = self._ids.get(node)
        if i is None:
            return 0
        return self._adj[i].bit_count()

    def color_degree(self, i: int) -> int:
        """Degree counting only register neighbors (pseudo nodes are
        ignored during allocation, per the paper)."""
        return (self._adj[i] & ~self.pseudo_mask).bit_count()

    def add_move(self, a, b) -> None:
        if a != b and a.rclass is b.rclass:
            self.moves.add((a, b) if repr(a) <= repr(b) else (b, a))

    # -- coalescing support --------------------------------------------------

    def merge_into(self, a, b) -> None:
        """Merge node ``b`` into ``a``: ``a`` absorbs ``b``'s edges and
        ``b`` leaves the graph (its id becomes a tombstone)."""
        ia = self._ids[a]
        ib = self._ids[b]
        bmask = self._adj[ib]
        abit = 1 << ia
        bbit = 1 << ib
        adj = self._adj
        # detach b everywhere, attach a in its place
        for j in iter_bits(bmask):
            adj[j] = (adj[j] & ~bbit) | abit
        adj[ia] |= bmask
        adj[ia] &= ~(abit | bbit)
        adj[ib] = 0
        del self._ids[b]
        self.pseudo_mask &= ~bbit
        self.phys_mask &= ~bbit
        self.vreg_mask &= ~bbit
        self.moves = {(x if x != b else a, y if y != b else a)
                      for x, y in self.moves}

    def _symmetrize(self) -> None:
        """Mirror the one-directional adjacency accumulated during the
        build walk.  One pass suffices: for every recorded direction the
        reverse bit is set here or was set at accumulation time."""
        adj = self._adj
        for i in range(len(adj)):
            bit = 1 << i
            for j in iter_bits(adj[i]):
                adj[j] |= bit


def _begin_hook(hook, fn, graph, manager):
    """``hook`` if it takes part in this build, else None."""
    if hook is None or hook.begin(fn, graph, manager) is False:
        return None
    return hook


def build_interference_graph(fn: Function, machine: MachineConfig,
                             extra_node_hook=None,
                             manager: Optional[AnalysisManager] = None
                             ) -> InterferenceGraph:
    """Construct the interference graph for ``fn``.

    ``extra_node_hook`` is an object with ``begin(fn, graph, manager)``
    and ``visit(label, instr, live_after, graph)`` methods, invoked in
    the same backward walk that builds register interference; it lets
    the integrated CCM allocator splice CCM-location names into the same
    graph (paper section 3.2) without this module knowing about them.
    A ``begin`` that returns ``False`` has nothing to add to this graph,
    and the walk skips its ``visit`` calls.  ``live_after`` is a
    :class:`~repro.analysis.bitset.MaskSetView` whose mask bits are
    graph ids.

    ``manager`` supplies cached CFG/liveness; without one they are
    computed locally.
    """
    if manager is not None:
        bits = manager.liveness().bits
    else:
        bits = compute_liveness_masks(fn, CFG(fn))
    index = bits.index
    ids = index.ids

    graph = InterferenceGraph()
    for reg in index.regs:
        graph.add_node(reg)
    # the first len(index) graph ids coincide with the dense liveness
    # numbering, so live masks drop straight into the adjacency rows
    adj = graph._adj
    cmask = index.class_mask

    # Parameters are defined implicitly at function entry: they carry
    # distinct incoming values, so they interfere pairwise and with
    # everything else live into the entry block.
    entry_mask = bits.live_in[fn.entry.label] | index.mask_of(fn.params)
    for a in fn.params:
        ia = ids[a]
        adj[ia] |= entry_mask & cmask[a.rclass] & ~(1 << ia)

    caller_saved = {
        RegClass.INT: machine.caller_saved(RegClass.INT),
        RegClass.FLOAT: machine.caller_saved(RegClass.FLOAT),
    }

    extra_node_hook = _begin_hook(extra_node_hook, fn, graph, manager)

    live_out = bits.live_out
    for block in fn.blocks:
        live = live_out[block.label]
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            dsts_mask = 0
            for d in instr.dsts:
                dsts_mask |= 1 << ids[d]
            if instr.is_move:
                src = instr.srcs[0]
                dst = instr.dsts[0]
                graph.add_move(dst, src)
                idst = ids[dst]
                adj[idst] |= (live & cmask[dst.rclass]
                              & ~(1 << ids[src]) & ~(1 << idst))
            else:
                for dst in instr.dsts:
                    idst = ids[dst]
                    adj[idst] |= ((live | dsts_mask) & cmask[dst.rclass]
                                  & ~(1 << idst))
            if instr.is_call:
                clobber_live = live & ~dsts_mask
                for rclass, regs in caller_saved.items():
                    m = clobber_live & cmask[rclass]
                    for phys in regs:
                        iph = graph.ensure(phys)
                        pbit = 1 << ids[phys] if phys in ids else 0
                        graph._adj[iph] |= m & ~pbit
                adj = graph._adj  # ensure() may have grown the list
            if extra_node_hook is not None:
                extra_node_hook.visit(block.label, instr,
                                      MaskSetView(live, index), graph)
            # step backward across the instruction
            live &= ~dsts_mask
            if not instr.is_phi:
                for s in instr.srcs:
                    live |= 1 << ids[s]
    graph._symmetrize()
    return graph


def to_dot(graph: InterferenceGraph, max_nodes: int = 200) -> str:
    """GraphViz dot text for an interference graph (debugging aid).

    Interference edges are solid, move-related pairs dashed, CCM
    pseudo-nodes boxed.  Truncates to ``max_nodes`` for readability.
    """
    lines = ["graph interference {", "  node [fontsize=10];"]
    nodes = graph.nodes()[:max_nodes]
    node_set = set(nodes)
    for node in nodes:
        shape = "box" if isinstance(node, PseudoNode) else (
            "doublecircle" if isinstance(node, PhysReg) else "ellipse")
        lines.append(f'  "{node!r}" [shape={shape}];')
    seen = set()
    for node in nodes:
        for other in graph.neighbors(node):
            if other not in node_set:
                continue
            key = frozenset((repr(node), repr(other)))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "{node!r}" -- "{other!r}";')
    for a, b in graph.moves:
        if a in node_set and b in node_set:
            lines.append(f'  "{a!r}" -- "{b!r}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines)
