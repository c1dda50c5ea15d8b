"""Backward iterative liveness analysis over registers.

Phi semantics follow the standard convention: a phi's source is live out
of the corresponding *predecessor*, not live into the phi's own block.

The same worklist engine is reused by :mod:`repro.ccm.mem_liveness`,
which runs liveness over *spill slots* instead of registers — the
paper's key analytical move (section 3.1: "a spill location m is live at
p if there exists an execution path from p to an instruction that loads
m").

The fixpoint is computed over dense masks of a per-function register
numbering, with the set algebra replaced by integer AND/OR/ANDNOT
(:mod:`repro.analysis.bitset`); the per-block ``live_in``/``live_out``
sets are materialized from the masks only for callers that read them.
The original Python-set implementation is kept as a reference oracle in
``tests/liveness_oracle.py``, and ``tests/test_bitset_oracle_fuzz.py``
holds the two block-for-block equal over the fuzz corpus.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..ir import Function
from .bitset import BitLiveness, DenseIndex, compute_liveness_masks
from .cfg import CFG


class _LazySetMap(dict):
    """Dict of block label -> register set, materialized per key from a
    mask map on first access.  Keeps the historical ``live_in[label]``
    API on top of the bitset engine without paying for sets nobody
    reads."""

    __slots__ = ("_masks", "_index")

    def __init__(self, masks: Dict[str, int], index: DenseIndex):
        super().__init__()
        self._masks = masks
        self._index = index

    def __missing__(self, key: str) -> Set:
        value = self._index.set_of(self._masks[key])
        self[key] = value
        return value

    # only materialized entries are visible through plain dict iteration;
    # route the container protocol through the mask map instead
    def __contains__(self, key) -> bool:
        return key in self._masks

    def __iter__(self):
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def keys(self):
        return self._masks.keys()

    def items(self):
        return ((label, self[label]) for label in self._masks)

    def values(self):
        return (self[label] for label in self._masks)

    def get(self, key, default=None):
        if key not in self._masks:
            return default
        return self[key]


class LivenessInfo:
    """Per-block live-in/live-out sets plus per-instruction queries.

    ``bits`` carries the mask-form facts
    (:class:`~repro.analysis.bitset.BitLiveness`) the sets are
    materialized from; mask-aware consumers (the interference builder,
    the call-crossing scan) read it directly and skip set
    materialization.
    """

    def __init__(self, live_in: Dict[str, Set], live_out: Dict[str, Set],
                 fn: Function, cfg: CFG, bits: BitLiveness):
        self.live_in = live_in
        self.live_out = live_out
        self.fn = fn
        self.cfg = cfg
        self.bits = bits

    def live_across_instructions(self, label: str):
        """Yield (index, instr, live_after) walking a block backward.

        ``live_after`` is the set of registers live immediately after the
        instruction executes — the set spill-interference is judged
        against.

        Each yielded set is freshly materialized; the caller may keep
        or mutate it.
        """
        block = self.fn.block(label)
        index = self.bits.index
        ids = index.ids
        live = self.bits.live_out[label]
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            yield idx, instr, index.set_of(live)
            for d in instr.dsts:
                live &= ~(1 << ids[d])
            if not instr.is_phi:
                for s in instr.srcs:
                    live |= 1 << ids[s]


def compute_liveness(fn: Function, cfg: CFG = None,
                     index: Optional[DenseIndex] = None) -> LivenessInfo:
    """Liveness for ``fn``: mask facts plus lazily materialized sets."""
    cfg = cfg or CFG(fn)
    facts = compute_liveness_masks(fn, cfg, index)
    return LivenessInfo(_LazySetMap(facts.live_in, facts.index),
                        _LazySetMap(facts.live_out, facts.index),
                        fn, cfg, bits=facts)


def values_live_across_calls(fn: Function, liveness: LivenessInfo = None) -> Set:
    """Registers live immediately after some CALL instruction.

    The intraprocedural post-pass CCM allocator refuses to promote spill
    slots whose value is live across a call (paper section 3.1); this is
    the register-level analog used in tests and diagnostics.
    """
    liveness = liveness or compute_liveness(fn)
    index = liveness.bits.index
    ids = index.ids
    live_out = liveness.bits.live_out
    crossing = 0
    for block in fn.blocks:
        if not any(instr.is_call for instr in block.instructions):
            continue
        live = live_out[block.label]
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            if instr.is_call:
                crossing |= live
            for d in instr.dsts:
                live &= ~(1 << ids[d])
            if not instr.is_phi:
                for s in instr.srcs:
                    live |= 1 << ids[s]
    return index.set_of(crossing)
