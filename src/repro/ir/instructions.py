"""Instruction objects for the ILOC-like IR.

An :class:`Instruction` is a mutable record: rewriting passes (register
allocation, spill promotion, peephole) edit ``srcs``/``dsts``/``imm`` in
place or replace whole instructions inside a block's list.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .opcodes import Opcode, info
from .operands import PhysReg, RegClass, VirtualReg


class Instruction:
    """One three-address operation.

    Attributes:
        opcode: the operation.
        dsts: registers written (list).
        srcs: registers read (list).
        imm: immediate operand (int for most ops; float for loadFI;
            a byte offset for spill/reload/ccm ops).
        labels: branch targets (list of str block labels).
        symbol: callee name for CALL, global name for LOADG.
        phi_labels: for PHI, the predecessor block label of each src.
        comment: free-form annotation carried into the listing.
    """

    __slots__ = ("opcode", "dsts", "srcs", "imm", "labels", "symbol",
                 "phi_labels", "comment")

    def __init__(self, opcode: Opcode, dsts: Sequence = (), srcs: Sequence = (),
                 imm=None, labels: Sequence[str] = (), symbol: Optional[str] = None,
                 phi_labels: Sequence[str] = (), comment: str = ""):
        self.opcode = opcode
        self.dsts: List = list(dsts)
        self.srcs: List = list(srcs)
        self.imm = imm
        self.labels: List[str] = list(labels)
        self.symbol = symbol
        self.phi_labels: List[str] = list(phi_labels)
        self.comment = comment

    # -- classification helpers ------------------------------------------

    @property
    def meta(self):
        return info(self.opcode)

    @property
    def is_branch(self) -> bool:
        return self.meta.is_branch

    @property
    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    @property
    def is_phi(self) -> bool:
        return self.opcode is Opcode.PHI

    @property
    def is_move(self) -> bool:
        return self.opcode in (Opcode.MOV, Opcode.FMOV)

    @property
    def is_main_memory_op(self) -> bool:
        return self.meta.is_main_memory

    @property
    def is_spill_related(self) -> bool:
        """True for allocator-inserted memory traffic (stack or CCM)."""
        return self.meta.is_spill_op

    @property
    def is_ccm_op(self) -> bool:
        return self.meta.is_ccm

    # -- structural helpers ----------------------------------------------

    def regs(self):
        """All register operands, reads then writes."""
        return list(self.srcs) + list(self.dsts)

    def replace_src(self, old, new) -> int:
        """Replace every read of ``old`` with ``new``; returns count."""
        n = 0
        for i, r in enumerate(self.srcs):
            if r == old:
                self.srcs[i] = new
                n += 1
        return n

    def replace_dst(self, old, new) -> int:
        n = 0
        for i, r in enumerate(self.dsts):
            if r == old:
                self.dsts[i] = new
                n += 1
        return n

    def copy(self) -> "Instruction":
        # slot-for-slot, bypassing __init__'s list() conversions: every
        # program clone copies each instruction once.  The lists must
        # still be fresh, since passes mutate them in place.
        new = object.__new__(Instruction)
        new.opcode = self.opcode
        new.dsts = self.dsts[:]
        new.srcs = self.srcs[:]
        new.imm = self.imm
        new.labels = self.labels[:]
        new.symbol = self.symbol
        new.phi_labels = self.phi_labels[:]
        new.comment = self.comment
        return new

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:
        from .printer import format_instruction
        return format_instruction(self)


# -- convenience constructors ---------------------------------------------

def make_move(dst, src) -> Instruction:
    """A register-register copy of the appropriate class."""
    rc = dst.rclass
    op = Opcode.MOV if rc is RegClass.INT else Opcode.FMOV
    return Instruction(op, [dst], [src])


def make_spill(src, offset: int) -> Instruction:
    """Store ``src`` to the stack spill area at ``offset`` (bytes)."""
    op = Opcode.SPILL if src.rclass is RegClass.INT else Opcode.FSPILL
    return Instruction(op, [], [src], imm=offset)


def make_reload(dst, offset: int) -> Instruction:
    """Load the stack spill slot at ``offset`` into ``dst``."""
    op = Opcode.RELOAD if dst.rclass is RegClass.INT else Opcode.FRELOAD
    return Instruction(op, [dst], [], imm=offset)


def make_ccm_store(src, offset: int) -> Instruction:
    """Store ``src`` into the CCM at ``offset`` (the paper's spill op)."""
    op = Opcode.CCMST if src.rclass is RegClass.INT else Opcode.FCCMST
    return Instruction(op, [], [src], imm=offset)


def make_ccm_load(dst, offset: int) -> Instruction:
    """Load the CCM word at ``offset`` into ``dst`` (the restore op)."""
    op = Opcode.CCMLD if dst.rclass is RegClass.INT else Opcode.FCCMLD
    return Instruction(op, [dst], [], imm=offset)
