"""Structural verifier for the IR.

Run after every pass in tests: catches malformed terminators, dangling
branch targets, class mismatches, and phi inconsistencies early instead
of as mysterious simulator failures.
"""

from __future__ import annotations

from typing import List, Optional

from .function import Function, Program
from .opcodes import CCM_OPS, SPILL_OPS, Opcode, info
from .operands import PhysReg, VirtualReg


class VerificationError(ValueError):
    """The IR violates a structural invariant."""


def verify_function(fn: Function, program: Program = None) -> None:
    """Check one function's structural invariants; raises on violation."""
    if not fn.blocks:
        raise VerificationError(f"{fn.name}: no blocks")
    labels = {b.label for b in fn.blocks}
    for block in fn.blocks:
        if not block.instructions:
            raise VerificationError(f"{fn.name}/{block.label}: empty block")
        term = block.instructions[-1]
        if not term.is_branch:
            raise VerificationError(
                f"{fn.name}/{block.label}: does not end in a terminator "
                f"(ends in {term.opcode.value})")
        for i, instr in enumerate(block.instructions):
            _verify_instruction(fn, block.label, i, instr, labels, program)
            if instr.is_branch and i != len(block.instructions) - 1:
                raise VerificationError(
                    f"{fn.name}/{block.label}: branch in mid-block at {i}")
    # phis must be a prefix of the block
    for block in fn.blocks:
        seen_non_phi = False
        for instr in block.instructions:
            if instr.is_phi and seen_non_phi:
                raise VerificationError(
                    f"{fn.name}/{block.label}: phi after non-phi instruction")
            if not instr.is_phi:
                seen_non_phi = True
    _verify_phi_labels(fn)
    _verify_defs(fn)


def _verify_phi_labels(fn: Function) -> None:
    """Every phi label must name an actual CFG predecessor.

    Liveness folds a phi's source into the live-out of the labeled
    block (``phi_uses_at_pred``); a label that is not a real predecessor
    silently attributes liveness to an unrelated block — a pass bug
    (typically a missed phi update after edge redirection) that
    otherwise surfaces only as a mysterious allocation difference.
    """
    preds = {b.label: set() for b in fn.blocks}
    for block in fn.blocks:
        for target in block.successor_labels():
            preds[target].add(block.label)
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            if not instr.is_phi:
                break
            for label in instr.phi_labels:
                if label not in preds[block.label]:
                    raise VerificationError(
                        f"{fn.name}/{block.label}[{idx}] phi: label "
                        f"{label!r} is not a predecessor of "
                        f"{block.label!r}")


def _verify_defs(fn: Function) -> None:
    """Every virtual register read somewhere must be written somewhere.

    Flow-insensitive on purpose: a value may be defined on only some
    paths (phi inputs, loop-carried values), but a register with *no*
    definition anywhere in the function is always a pass bug — typically
    a dropped instruction or a rename applied to uses but not defs.
    """
    defined = {p for p in fn.params if isinstance(p, VirtualReg)}
    for _, instr in fn.instructions():
        for reg in instr.dsts:
            if isinstance(reg, VirtualReg):
                defined.add(reg)
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            for reg in instr.srcs:
                if isinstance(reg, VirtualReg) and reg not in defined:
                    raise VerificationError(
                        f"{fn.name}/{block.label}[{idx}] "
                        f"{instr.opcode.value}: src {reg} is never defined "
                        f"in the function")


#: ops whose immediate is a spill-slot offset, stack or CCM
_SLOT_OPS = frozenset(SPILL_OPS | CCM_OPS)
#: ops whose slot must lie inside the function's stack spill area
_STACK_SLOT_OPS = frozenset(SPILL_OPS)


def _verify_instruction(fn, label, idx, instr, labels, program) -> None:
    problem = _instruction_problem(fn, instr, labels, program)
    if problem is not None:
        # the location prefix is built only on failure: this check runs
        # once per instruction of every verified program
        raise VerificationError(
            f"{fn.name}/{label}[{idx}] {instr.opcode.value}: {problem}")


def _instruction_problem(fn, instr, labels, program) -> Optional[str]:
    """What is wrong with one instruction, or None."""
    opcode = instr.opcode
    meta = info(opcode)

    if meta.n_dsts >= 0 and len(instr.dsts) != meta.n_dsts:
        return f"expected {meta.n_dsts} dsts, got {len(instr.dsts)}"
    if meta.n_srcs >= 0 and len(instr.srcs) != meta.n_srcs:
        return f"expected {meta.n_srcs} srcs, got {len(instr.srcs)}"

    for reg, want in zip(instr.dsts, meta.dst_classes):
        if reg.rclass is not want:
            return (f"dst {reg} has class {reg.rclass.value}, "
                    f"expected {want.value}")
    for reg, want in zip(instr.srcs, meta.src_classes):
        if reg.rclass is not want:
            return (f"src {reg} has class {reg.rclass.value}, "
                    f"expected {want.value}")

    if meta.has_imm and instr.imm is None:
        return "missing immediate"
    if meta.n_labels and len(instr.labels) != meta.n_labels:
        return f"expected {meta.n_labels} labels, got {len(instr.labels)}"
    for target in instr.labels:
        if target not in labels:
            return f"unknown branch target {target}"

    if opcode is Opcode.PHI:
        if len(instr.srcs) != len(instr.phi_labels):
            return "phi srcs/labels length mismatch"
        for reg in instr.srcs:
            if reg.rclass is not instr.dsts[0].rclass:
                return "phi class mismatch"

    if opcode in _SLOT_OPS:
        if not isinstance(instr.imm, int) or instr.imm < 0:
            return f"bad slot offset {instr.imm!r}"

    if opcode in _STACK_SLOT_OPS:
        # stack spill slots must lie inside the declared spill area: an
        # access past fn.frame_size reads or clobbers the caller's frame
        reg = (instr.srcs or instr.dsts)[0]
        end = instr.imm + reg.rclass.size_bytes
        if end > fn.frame_size:
            return (f"stack slot [{instr.imm}, {end}) exceeds the "
                    f"declared {fn.frame_size}-byte spill area")

    if opcode is Opcode.CALL and program is not None:
        if instr.symbol not in program.functions:
            return f"unknown callee {instr.symbol}"
        callee = program.functions[instr.symbol]
        if len(instr.srcs) != len(callee.params):
            return (f"{instr.symbol} takes {len(callee.params)} args, "
                    f"got {len(instr.srcs)}")
    if opcode is Opcode.LOADG and program is not None:
        if instr.symbol not in program.globals:
            return f"unknown global {instr.symbol}"
    return None


def verify_program(prog: Program) -> None:
    """Check every function plus program-level references (calls, globals)."""
    if prog.entry_name not in prog.functions:
        raise VerificationError(f"no entry function {prog.entry_name!r}")
    for fn in prog.functions.values():
        verify_function(fn, prog)


def check_no_virtual_registers(fn: Function) -> None:
    """Post-allocation invariant: only physical registers remain."""
    for block in fn.blocks:
        for instr in block.instructions:
            for reg in instr.regs():
                if isinstance(reg, VirtualReg):
                    raise VerificationError(
                        f"{fn.name}/{block.label}: virtual register {reg} "
                        f"survived allocation in {instr!r}")
