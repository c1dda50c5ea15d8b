"""Dense numbering and bitset dataflow kernels.

Every dataflow fact the allocation hot path consumes — register
liveness, spill-slot (web) liveness, interference adjacency — is a set
drawn from a small, per-function universe.  This module assigns that
universe a stable dense numbering and runs the transfer functions over
Python integers used as bit vectors: union is ``|``, intersection is
``&``, difference is ``& ~``, and a whole block's worth of set algebra
collapses into a handful of word-parallel operations.

The numbering (:class:`DenseIndex`) enumerates ``fn.all_registers()``
in its natural set-iteration order.  That order is *deterministic
across processes*: ``VirtualReg``/``PhysReg`` hash to values derived
only from integer fields (see :mod:`repro.ir.operands`), never from
strings, so ``PYTHONHASHSEED`` cannot perturb it — the cross-process
determinism tests pin this.  It also exactly matches the node-creation
order of the legacy set-based interference builder, which keeps
allocator tie-breaking (and therefore every compiled artifact)
bit-identical to the set-based oracle.

The set-based implementations are kept as a reference oracle in
``tests/liveness_oracle.py``; the equivalence property tests in
``tests/test_bitset_oracle_fuzz.py`` compare the two block-for-block
and edge-for-edge over the fuzz corpus.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set

from ..ir import Function, RegClass

__all__ = ["DenseIndex", "BitLiveness", "iter_bits", "mask_to_ids",
           "compute_liveness_masks"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_ids(mask: int) -> List[int]:
    """The set bit positions of ``mask`` as an ascending list."""
    return list(iter_bits(mask))


class DenseIndex:
    """A stable dense numbering of one function's registers.

    Covers every register appearing in the function's instructions plus
    its parameters (exactly ``fn.all_registers()``).  The index is a
    snapshot: passes that introduce new registers (spill temporaries)
    must rebuild it — :class:`repro.analysis.manager.AnalysisManager`
    handles the invalidation.
    """

    __slots__ = ("fn", "ids", "regs", "class_mask", "phys_mask",
                 "vreg_mask")

    def __init__(self, fn: Function):
        self.fn = fn
        self.ids: Dict[object, int] = {}
        self.regs: List[object] = []
        #: bit mask of all registers of each class, keyed by RegClass
        self.class_mask: Dict[RegClass, int] = {RegClass.INT: 0,
                                                RegClass.FLOAT: 0}
        self.phys_mask = 0
        self.vreg_mask = 0
        from ..ir import PhysReg
        ids = self.ids
        regs = self.regs
        for reg in fn.all_registers():
            i = len(regs)
            ids[reg] = i
            regs.append(reg)
            bit = 1 << i
            self.class_mask[reg.rclass] |= bit
            if isinstance(reg, PhysReg):
                self.phys_mask |= bit
            else:
                self.vreg_mask |= bit

    def __len__(self) -> int:
        return len(self.regs)

    def id_of(self, reg) -> int:
        return self.ids[reg]

    def __contains__(self, reg) -> bool:
        return reg in self.ids

    def mask_of(self, regs) -> int:
        """Bit mask with every register of ``regs`` set."""
        ids = self.ids
        mask = 0
        for reg in regs:
            mask |= 1 << ids[reg]
        return mask

    def set_of(self, mask: int) -> Set:
        """Materialize a bit mask back into a set of register objects."""
        regs = self.regs
        return {regs[i] for i in iter_bits(mask)}


class MaskSetView:
    """A read-only, set-like view of a bit mask over a dense universe.

    Iteration yields the underlying objects in ascending index order
    (deterministic); membership is a dictionary lookup plus a bit test.
    Used to hand mask-based liveness to consumers written against the
    set API (e.g. interference-graph hooks) without materializing a set
    per instruction.
    """

    __slots__ = ("mask", "_index")

    def __init__(self, mask: int, index: DenseIndex):
        self.mask = mask
        self._index = index

    def __iter__(self):
        regs = self._index.regs
        return (regs[i] for i in iter_bits(self.mask))

    def __contains__(self, reg) -> bool:
        i = self._index.ids.get(reg)
        return i is not None and (self.mask >> i) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0


class BitLiveness:
    """Mask-form liveness facts for one function.

    ``live_in``/``live_out``/``use``/``defs``/``phi_defs`` map block
    labels to bit masks over :attr:`index`; ``phi_uses_at_pred`` maps a
    predecessor label to the mask of phi sources consumed on the edges
    out of it (the standard convention: a phi's source is live out of
    the corresponding predecessor).
    """

    __slots__ = ("index", "live_in", "live_out", "use", "defs",
                 "phi_defs", "phi_uses_at_pred")

    def __init__(self, index: DenseIndex):
        self.index = index
        self.live_in: Dict[str, int] = {}
        self.live_out: Dict[str, int] = {}
        self.use: Dict[str, int] = {}
        self.defs: Dict[str, int] = {}
        self.phi_defs: Dict[str, int] = {}
        self.phi_uses_at_pred: Dict[str, int] = {}


def compute_liveness_masks(fn: Function, cfg,
                           index: Optional[DenseIndex] = None) -> BitLiveness:
    """Backward liveness over registers, entirely in mask form.

    Same postorder worklist as the set-based oracle in
    :mod:`repro.analysis.liveness`, with the set algebra replaced by
    integer AND/OR/ANDNOT; both converge to the identical fixpoint (the
    transfer function is monotone and the lattices are isomorphic).
    """
    index = index or DenseIndex(fn)
    ids = index.ids
    facts = BitLiveness(index)
    use = facts.use
    defs = facts.defs
    phi_defs = facts.phi_defs
    phi_uses = facts.phi_uses_at_pred
    for block in fn.blocks:
        phi_uses.setdefault(block.label, 0)

    for block in fn.blocks:
        u = 0
        d = 0
        pd = 0
        for instr in block.instructions:
            if instr.is_phi:
                for src, pred in zip(instr.srcs, instr.phi_labels):
                    phi_uses[pred] = phi_uses.get(pred, 0) | (1 << ids[src])
                for dst in instr.dsts:
                    bit = 1 << ids[dst]
                    d |= bit
                    pd |= bit
                continue
            for src in instr.srcs:
                bit = 1 << ids[src]
                if not d & bit:
                    u |= bit
            for dst in instr.dsts:
                d |= 1 << ids[dst]
        use[block.label] = u
        defs[block.label] = d
        phi_defs[block.label] = pd

    live_in = facts.live_in
    live_out = facts.live_out
    for block in fn.blocks:
        live_in[block.label] = 0
        live_out[block.label] = 0

    succs = cfg.succs
    preds = cfg.preds
    worklist = deque(cfg.postorder())
    in_list = set(worklist)
    while worklist:
        label = worklist.popleft()
        in_list.discard(label)
        out = phi_uses.get(label, 0)
        for succ in succs[label]:
            # live-in of the successor minus its phi defs; the matching
            # liveness at this predecessor is the phi *source*, already
            # folded into phi_uses_at_pred
            out |= live_in[succ] & ~phi_defs[succ]
        new_in = use[label] | (out & ~defs[label])
        changed = out != live_out[label] or new_in != live_in[label]
        live_out[label] = out
        live_in[label] = new_in
        if changed:
            for pred in preds[label]:
                if pred not in in_list:
                    worklist.append(pred)
                    in_list.add(pred)
    return facts
