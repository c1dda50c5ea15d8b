"""Set-based liveness and interference: the oracle for the bitset engine.

These are the original Python-set implementations of
:func:`repro.analysis.compute_liveness` and
:func:`repro.regalloc.build_interference_graph`, kept verbatim in
spirit: one ``set`` per block, edges added one at a time.  The shipped
code computes the identical fixpoint and the identical graph over dense
bit masks; ``test_bitset_oracle_fuzz`` and ``test_analysis_bitset``
hold the two block-for-block and edge-for-edge equal, and
:func:`use_set_builder` runs whole allocations on the set-based builder
(``test_ccm_graph_hook``, ``test_ccm_placement_equivalence``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

from repro.analysis import CFG, DenseIndex
from repro.analysis.bitset import MaskSetView
from repro.ir import Function, Instruction, RegClass
from repro.regalloc import chaitin_briggs
from repro.regalloc.interference import InterferenceGraph, _begin_hook

__all__ = ["SetLiveness", "compute_liveness_sets",
           "build_interference_graph_sets", "use_set_builder"]


class SetLiveness:
    """Per-block live-in/live-out register sets."""

    def __init__(self, live_in: Dict[str, Set], live_out: Dict[str, Set],
                 fn: Function):
        self.live_in = live_in
        self.live_out = live_out
        self.fn = fn

    def live_across_instructions(self, label: str):
        """Yield (index, instr, live_after) walking a block backward.

        The yielded set is one working set reused across the walk:
        copy it to retain a value."""
        block = self.fn.block(label)
        live = set(self.live_out[label])
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            yield idx, instr, live
            _step_backward(instr, live)


def _step_backward(instr: Instruction, live: Set) -> None:
    """Update ``live`` across ``instr`` in the backward direction."""
    for d in instr.dsts:
        live.discard(d)
    if instr.is_phi:
        return  # phi uses count at predecessor block ends
    for s in instr.srcs:
        live.add(s)


def compute_liveness_sets(fn: Function, cfg: CFG = None) -> SetLiveness:
    """Backward liveness with one Python set per block."""
    cfg = cfg or CFG(fn)
    use: Dict[str, Set] = {}
    defs: Dict[str, Set] = {}
    phi_defs: Dict[str, Set] = {}
    phi_uses_at_pred: Dict[str, Set] = {b.label: set() for b in fn.blocks}

    for block in fn.blocks:
        u: Set = set()
        d: Set = set()
        pd: Set = set()
        for instr in block.instructions:
            if instr.is_phi:
                for src, pred in zip(instr.srcs, instr.phi_labels):
                    phi_uses_at_pred.setdefault(pred, set()).add(src)
                for dst in instr.dsts:
                    d.add(dst)
                    pd.add(dst)
                continue
            for src in instr.srcs:
                if src not in d:
                    u.add(src)
            for dst in instr.dsts:
                d.add(dst)
        use[block.label] = u
        defs[block.label] = d
        phi_defs[block.label] = pd

    live_in: Dict[str, Set] = {b.label: set() for b in fn.blocks}
    live_out: Dict[str, Set] = {b.label: set() for b in fn.blocks}

    worklist = deque(cfg.postorder())
    in_list = set(worklist)
    while worklist:
        label = worklist.popleft()
        in_list.discard(label)
        out: Set = set(phi_uses_at_pred.get(label, ()))
        for succ in cfg.succs[label]:
            # live-in of successor, minus its phi defs, plus nothing extra:
            # phi defs are live-in to the successor but the corresponding
            # liveness at this predecessor is the phi *source*, already in
            # phi_uses_at_pred.
            out |= (live_in[succ] - phi_defs[succ])
        new_in = use[label] | (out - defs[label])
        changed = out != live_out[label] or new_in != live_in[label]
        live_out[label] = out
        live_in[label] = new_in
        if changed:
            for pred in cfg.preds[label]:
                if pred not in in_list:
                    worklist.append(pred)
                    in_list.add(pred)
    return SetLiveness(live_in, live_out, fn)


def build_interference_graph_sets(fn: Function, machine,
                                  extra_node_hook=None,
                                  manager=None) -> InterferenceGraph:
    """The set-walk interference builder, edge by edge.

    Liveness is recomputed from scratch with :func:`compute_liveness_sets`
    (``manager`` only supplies the CFG).  Hooks see the same protocol as
    under the shipped builder: ``live_after`` is a
    :class:`~repro.analysis.bitset.MaskSetView` over the function's
    dense numbering, which is also the id order of the register nodes
    added first here, so mask bits are graph ids.
    """
    graph = InterferenceGraph()
    cfg = manager.cfg() if manager is not None else CFG(fn)
    liveness = compute_liveness_sets(fn, cfg)
    index = DenseIndex(fn)

    for reg in fn.all_registers():
        graph.add_node(reg)

    entry_live = set(liveness.live_in[fn.entry.label]) | set(fn.params)
    for a in fn.params:
        for b in entry_live:
            graph.add_edge(a, b)

    caller_saved = {
        RegClass.INT: machine.caller_saved(RegClass.INT),
        RegClass.FLOAT: machine.caller_saved(RegClass.FLOAT),
    }

    extra_node_hook = _begin_hook(extra_node_hook, fn, graph, manager)

    for block in fn.blocks:
        for _, instr, live_after in liveness.live_across_instructions(
                block.label):
            if instr.is_move:
                src = instr.srcs[0]
                graph.add_move(instr.dsts[0], src)
                for live in live_after:
                    if live != src:
                        graph.add_edge(instr.dsts[0], live)
            else:
                for dst in instr.dsts:
                    for live in live_after:
                        graph.add_edge(dst, live)
                    for other in instr.dsts:
                        graph.add_edge(dst, other)
            if instr.is_call:
                for rclass, regs in caller_saved.items():
                    for phys in regs:
                        graph.add_node(phys)
                        for live in live_after:
                            if live not in instr.dsts:
                                graph.add_edge(phys, live)
            if extra_node_hook is not None:
                extra_node_hook.visit(
                    block.label, instr,
                    MaskSetView(index.mask_of(live_after), index), graph)
    # hooks may write one-directional pseudo rows (register edges are
    # already symmetric, so this only mirrors those)
    graph._symmetrize()
    return graph


def use_set_builder(monkeypatch) -> None:
    """Route the Chaitin-Briggs allocator through the set-based builder
    for the rest of the test (``monkeypatch`` undoes it)."""
    monkeypatch.setattr(chaitin_briggs, "build_interference_graph",
                        build_interference_graph_sets)
