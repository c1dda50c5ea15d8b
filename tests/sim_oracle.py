"""Reference interpreter: the oracle the closure-compiled simulator is
pinned against.

:class:`InterpSimulator` re-decodes every instruction on every dynamic
execution — an ``if/elif`` chain over :class:`Opcode`, an
``isinstance(VirtualReg)`` test plus a dict lookup per operand access,
and a ``fn.block(label)`` lookup per iteration.  It is deliberately the
plainest possible reading of the machine model of section 4, and it
keeps its own eager cycle accounting, so it shares nothing with
:mod:`repro.machine.predecode` beyond the opcode tables.

It subclasses :class:`~repro.machine.Simulator` and overrides only
``_run``: construction, memory layout, globals snapshots, and the
tracing wrapper in ``run`` are the shipped ones.  The equivalence
suites (``test_sim_engine_fuzz``, ``test_sim_predecode``,
``test_sim_batch_fuzz``, ``test_regalloc_ssa_fuzz``) require the
shipped simulator to match it field for field: return value, every
:class:`RunStats` field including cache statistics, poison semantics,
and the kind and message of every trap.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir import Instruction, Opcode, RegClass, VirtualReg
from repro.machine import Simulator
from repro.machine.simulator import (POISON, STACK_BASE, OutOfFuel, RunResult,
                                     RunStats, SimulationError, _FLOAT_BINOPS,
                                     _INT_BINOPS, _INT_IMMOPS, fmt_addr)

__all__ = ["InterpSimulator", "simulator"]


def simulator(engine: str, program, *args, **kwargs) -> Simulator:
    """``engine`` "interp" builds the oracle, anything else the shipped
    :class:`Simulator` — so equivalence tests can loop over both."""
    cls = InterpSimulator if engine == "interp" else Simulator
    return cls(program, *args, **kwargs)


class _Frame:
    __slots__ = ("fn", "label", "index", "vregs", "base", "call_instr")

    def __init__(self, fn, base: int):
        self.fn = fn
        self.label = fn.entry.label
        self.index = 0
        self.vregs: Dict[VirtualReg, object] = {}
        self.base = base
        self.call_instr: Optional[Instruction] = None


class InterpSimulator(Simulator):
    """The reference interpreter (see the module docstring)."""

    # -- register access -------------------------------------------------------

    def _read(self, frame: _Frame, reg) -> object:
        if isinstance(reg, VirtualReg):
            store = frame.vregs
        else:
            store = self.phys
        if reg not in store:
            raise SimulationError(
                f"{frame.fn.name}: read of undefined register {reg}")
        value = store[reg]
        if value is POISON:
            raise SimulationError(
                f"{frame.fn.name}: read of poisoned (caller-saved, "
                f"clobbered by call) register {reg}")
        return value

    def _write(self, frame: _Frame, reg, value) -> None:
        if isinstance(reg, VirtualReg):
            frame.vregs[reg] = value
        else:
            self.phys[reg] = value

    # -- main loop ----------------------------------------------------------------

    def _run(self, entry: Optional[str] = None,
             args: List = ()) -> RunResult:
        entry = entry or self.program.entry_name
        fn = self.program.functions[entry]
        if len(args) != len(fn.params):
            raise SimulationError(
                f"{entry} expects {len(fn.params)} args, got {len(args)}")
        stats = RunStats()
        stack: List[_Frame] = []
        frame = self._push_frame(fn, stack)
        for param, value in zip(fn.params, args):
            self._write(frame, param, value)

        result: object = None
        while True:
            if stats.instructions >= self.fuel:
                raise OutOfFuel(
                    f"exceeded {self.fuel} instructions in {frame.fn.name}")
            block = frame.fn.block(frame.label)
            if frame.index >= len(block.instructions):
                raise SimulationError(
                    f"{frame.fn.name}/{frame.label}: fell off block end")
            instr = block.instructions[frame.index]
            stats.instructions += 1
            outcome = self._execute(instr, frame, stack, stats)
            if outcome == "halt":
                break
            if outcome == "return":
                if not stack:
                    result = self._pending_return
                    break
                frame = stack[-1]
            elif outcome == "call":
                frame = stack[-1]
            # "next" and branches already updated frame in place
        if self.cache is not None:
            stats.cache = self.cache.stats
        return RunResult(result, stats)

    def _push_frame(self, fn, stack: List[_Frame]) -> _Frame:
        depth = sum(f.fn.frame_size for f in stack)
        base = STACK_BASE - depth - fn.frame_size
        frame = _Frame(fn, base)
        stack.append(frame)
        return frame

    # -- execution ------------------------------------------------------------------

    def _mem_access(self, addr: int, is_store: bool, stats: RunStats) -> int:
        """Latency of a main-memory access, through the cache if present."""
        if self.cache is not None:
            return self.cache.access(addr, is_store)
        return self.machine.memory_latency

    def _load_mem(self, addr: int, frame: _Frame) -> object:
        if addr not in self.memory:
            raise SimulationError(
                f"{frame.fn.name}: load from unmapped address "
                f"{fmt_addr(addr)}")
        return self.memory[addr]

    def _execute(self, instr: Instruction, frame: _Frame,
                 stack: List[_Frame], stats: RunStats) -> str:
        op = instr.opcode
        m = self.machine
        latency = m.default_latency
        advance = True

        if op is Opcode.PHI:
            raise SimulationError(
                f"{frame.fn.name}: phi reached the simulator; destroy SSA "
                "before running")

        elif op is Opcode.LOADI or op is Opcode.LOADFI:
            self._write(frame, instr.dsts[0], instr.imm)
        elif op is Opcode.LOADG:
            self._write(frame, instr.dsts[0], self.global_base[instr.symbol])
        elif op in (Opcode.MOV, Opcode.FMOV):
            self._write(frame, instr.dsts[0], self._read(frame, instr.srcs[0]))

        elif op in _INT_BINOPS:
            a = self._read(frame, instr.srcs[0])
            b = self._read(frame, instr.srcs[1])
            try:
                result = _INT_BINOPS[op](a, b)
            except (ValueError, OverflowError) as exc:  # e.g. negative shift
                raise SimulationError(f"{op.value}: {exc}", kind="trap")
            self._write(frame, instr.dsts[0], result)
        elif op in _INT_IMMOPS:
            a = self._read(frame, instr.srcs[0])
            try:
                result = _INT_IMMOPS[op](a, instr.imm)
            except (ValueError, OverflowError) as exc:
                raise SimulationError(f"{op.value}: {exc}", kind="trap")
            self._write(frame, instr.dsts[0], result)
        elif op is Opcode.NOT:
            self._write(frame, instr.dsts[0], ~self._read(frame, instr.srcs[0]))
        elif op in _FLOAT_BINOPS:
            a = self._read(frame, instr.srcs[0])
            b = self._read(frame, instr.srcs[1])
            self._write(frame, instr.dsts[0], _FLOAT_BINOPS[op](a, b))
        elif op is Opcode.FNEG:
            self._write(frame, instr.dsts[0], -self._read(frame, instr.srcs[0]))
        elif op is Opcode.I2F:
            self._write(frame, instr.dsts[0],
                        float(self._read(frame, instr.srcs[0])))
        elif op is Opcode.F2I:
            value = self._read(frame, instr.srcs[0])
            if value != value or value in (float("inf"), float("-inf")):
                raise SimulationError(
                    f"f2i of non-finite value {value!r}", kind="trap")
            self._write(frame, instr.dsts[0], int(value))

        elif op in (Opcode.LOAD, Opcode.FLOAD):
            addr = self._read(frame, instr.srcs[0])
            latency = self._mem_access(addr, False, stats)
            self._write(frame, instr.dsts[0], self._load_mem(addr, frame))
            stats.loads += 1
        elif op in (Opcode.LOADAI, Opcode.FLOADAI):
            addr = self._read(frame, instr.srcs[0]) + instr.imm
            latency = self._mem_access(addr, False, stats)
            self._write(frame, instr.dsts[0], self._load_mem(addr, frame))
            stats.loads += 1
        elif op in (Opcode.STORE, Opcode.FSTORE):
            addr = self._read(frame, instr.srcs[1])
            latency = self._mem_access(addr, True, stats)
            self.memory[addr] = self._read(frame, instr.srcs[0])
            stats.stores += 1
        elif op in (Opcode.STOREAI, Opcode.FSTOREAI):
            addr = self._read(frame, instr.srcs[1]) + instr.imm
            latency = self._mem_access(addr, True, stats)
            self.memory[addr] = self._read(frame, instr.srcs[0])
            stats.stores += 1

        elif op in (Opcode.SPILL, Opcode.FSPILL):
            addr = frame.base + instr.imm
            latency = self._mem_access(addr, True, stats)
            self.memory[addr] = self._read(frame, instr.srcs[0])
            stats.spill_stores += 1
            stats.stores += 1
        elif op in (Opcode.RELOAD, Opcode.FRELOAD):
            addr = frame.base + instr.imm
            latency = self._mem_access(addr, False, stats)
            self._write(frame, instr.dsts[0], self._load_mem(addr, frame))
            stats.spill_loads += 1
            stats.loads += 1

        elif op in (Opcode.CCMST, Opcode.FCCMST):
            size = 4 if op is Opcode.CCMST else 8
            offset = self.ccm_base + instr.imm
            self._check_ccm(offset, size, frame)
            latency = m.ccm_latency
            self.ccm[offset] = self._read(frame, instr.srcs[0])
            stats.ccm_stores += 1
            stats.max_ccm_offset = max(stats.max_ccm_offset, offset + size - 1)
        elif op in (Opcode.CCMLD, Opcode.FCCMLD):
            size = 4 if op is Opcode.CCMLD else 8
            offset = self.ccm_base + instr.imm
            self._check_ccm(offset, size, frame)
            latency = m.ccm_latency
            if offset not in self.ccm:
                raise SimulationError(
                    f"{frame.fn.name}: CCM load from unwritten offset {offset}")
            self._write(frame, instr.dsts[0], self.ccm[offset])
            stats.ccm_loads += 1
            stats.max_ccm_offset = max(stats.max_ccm_offset, offset + size - 1)

        elif op is Opcode.JUMP:
            frame.label = instr.labels[0]
            frame.index = 0
            advance = False
        elif op is Opcode.CBR:
            cond = self._read(frame, instr.srcs[0])
            frame.label = instr.labels[0] if cond != 0 else instr.labels[1]
            frame.index = 0
            advance = False
        elif op is Opcode.CALL:
            callee = self.program.functions.get(instr.symbol)
            if callee is None:
                raise SimulationError(f"call to unknown function {instr.symbol}")
            arg_values = [self._read(frame, s) for s in instr.srcs]
            frame.call_instr = instr
            frame.index += 1  # resume after the call
            new_frame = self._push_frame(callee, stack)
            if len(arg_values) != len(callee.params):
                raise SimulationError(
                    f"{callee.name}: arity mismatch at call from {frame.fn.name}")
            for param, value in zip(callee.params, arg_values):
                self._write(new_frame, param, value)
            stats.calls += 1
            stats.cycles += latency
            self._account(instr, latency, stats)
            return "call"
        elif op is Opcode.RET:
            value = self._read(frame, instr.srcs[0]) if instr.srcs else None
            stack.pop()
            stats.cycles += latency
            stats.op_cycles += latency
            if not stack:
                self._pending_return = value
                return "return"
            caller = stack[-1]
            call_instr = caller.call_instr
            if self.poison_caller_saved:
                self._poison_caller_saved(call_instr)
            if call_instr is not None and call_instr.dsts:
                if value is None:
                    raise SimulationError(
                        f"{frame.fn.name}: void return but caller expects a value")
                self._write(caller, call_instr.dsts[0], value)
            return "return"
        elif op is Opcode.HALT:
            stats.cycles += latency
            stats.op_cycles += latency
            self._pending_return = None
            return "halt"
        elif op is Opcode.NOP:
            pass
        else:
            raise SimulationError(f"unimplemented opcode {op}")

        stats.cycles += latency
        self._account(instr, latency, stats)
        if advance:
            frame.index += 1
        return "next"

    def _account(self, instr: Instruction, latency: int,
                 stats: RunStats) -> None:
        """Bucket one instruction's latency; every charged cycle lands
        in exactly one bucket (see the RunStats identity)."""
        if instr.meta.is_main_memory or instr.meta.is_ccm:
            stats.memory_cycles += latency
        else:
            stats.op_cycles += latency

    def _check_ccm(self, offset: int, size: int, frame: _Frame) -> None:
        if offset < 0 or offset + size > self.machine.ccm_bytes:
            raise SimulationError(
                f"{frame.fn.name}: CCM access at {offset}+{size} exceeds "
                f"{self.machine.ccm_bytes}-byte CCM")

    def _poison_caller_saved(self, call_instr) -> None:
        keep = set(call_instr.dsts) if call_instr is not None else set()
        for rclass in (RegClass.INT, RegClass.FLOAT):
            for reg in self.machine.caller_saved(rclass):
                if reg not in keep:
                    self.phys[reg] = POISON
