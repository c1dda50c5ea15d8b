"""Cycle-accurate simulator for the ILOC-like IR.

This plays the role of the paper's instrumented-C back end: it executes a
program on the abstract machine of section 4 (single issue, 2-cycle
memory operations, 1-cycle everything else including CCM access) and
reports dynamic cycle counts, with memory-operation cycles broken out —
exactly the two numbers each Table 2 entry contains.

Design notes:

* Virtual registers live in per-frame files, physical registers in one
  global file; mixed code therefore runs, so the suite can simulate a
  kernel before *and* after allocation and assert identical results.
* Stack spill slots are real addresses inside the activation record, so
  when a :class:`~repro.machine.cache.DataCache` is attached, spill
  traffic pollutes it.  CCM accesses live in a disjoint space and never
  touch the cache — the paper's architectural point.
* ``poison_caller_saved=True`` overwrites caller-saved registers with a
  poison sentinel on every call return; reading poison raises.  This
  turns register-allocator convention bugs into loud failures.

Execution runs on the closure-compiled driver of
:mod:`repro.machine.predecode`; :mod:`repro.machine.batch` runs the same
driver once for a whole group of timing-only machine variants.  The
reference interpreter both are pinned against lives with the tests
(``tests/sim_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir import Opcode, PhysReg, Program, RegClass
from ..trace import current as _trace_current
from .cache import CacheStats, DataCache
from .target import DEFAULT_MACHINE, MachineConfig

GLOBAL_BASE = 0x1000
STACK_BASE = 0x8000_0000

def fmt_addr(addr) -> str:
    """Hex for int addresses; repr otherwise (a non-int address is
    itself evidence of a miscompile and must still trap cleanly)."""
    return f"{addr:#x}" if isinstance(addr, int) else repr(addr)


class SimulationError(RuntimeError):
    """The program performed an illegal operation (bad address, use of an
    undefined or poisoned register, CCM overflow, ...).

    ``kind`` separates deterministic *program* traps (division by zero,
    float-to-int of a non-finite value) from *machine* errors that
    indicate a miscompile or a malformed program.  Program traps are
    part of a program's observable behavior: the differential tester
    requires every configuration to reproduce them identically, while a
    machine error in compiled code is a divergence on its own.
    """

    def __init__(self, message: str, kind: str = "machine"):
        super().__init__(message)
        self.kind = kind


class OutOfFuel(SimulationError):
    """The instruction budget was exhausted (runaway loop guard)."""


class _Poison:
    def __repr__(self) -> str:
        return "<poison>"


POISON = _Poison()


@dataclass
class RunStats:
    """Dynamic execution statistics for one simulation.

    Cycle accounting is exhaustive and disjoint: every instruction
    charges its latency up front (there are no interlocks), and every
    cycle lands in exactly one of ``op_cycles`` (non-memory instruction
    latencies) or ``memory_cycles`` (main-memory, cache, and CCM access
    latencies), so ``cycles == op_cycles + memory_cycles`` always holds
    — the property test over the fuzz corpus enforces it, so no path
    can double-count or drop cycles.

    Every field is a count fixed by the program and the machine, so
    the batched and reference engines are held equal to this one
    field for field.
    """

    cycles: int = 0
    memory_cycles: int = 0
    op_cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    spill_stores: int = 0
    spill_loads: int = 0
    ccm_stores: int = 0
    ccm_loads: int = 0
    calls: int = 0
    max_ccm_offset: int = -1
    cache: Optional[CacheStats] = None

    @property
    def spill_traffic(self) -> int:
        return self.spill_stores + self.spill_loads

    @property
    def ccm_traffic(self) -> int:
        return self.ccm_stores + self.ccm_loads


@dataclass
class RunResult:
    value: object
    stats: RunStats


class Simulator:
    """Executes a :class:`Program` and collects :class:`RunStats`."""

    def __init__(self, program: Program, machine: MachineConfig = DEFAULT_MACHINE,
                 cache: Optional[DataCache] = None, fuel: int = 50_000_000,
                 poison_caller_saved: bool = False):
        self.program = program
        self.machine = machine
        self.cache = cache
        self.fuel = fuel
        self.poison_caller_saved = poison_caller_saved

        self.memory: Dict[int, object] = {}
        self.ccm: Dict[int, object] = {}
        # Section 2.1: in a multi-tasked environment a system-controlled
        # base register gives each process its own CCM region, avoiding
        # a copy-out on context switch.  The OS (i.e. the test harness)
        # changes this between runs; compiled code never sees it.
        self.ccm_base = 0
        # Physical registers hold a value from power-on (zero here), so
        # callee-saved save/restore sequences may copy them freely.
        # Virtual registers stay strictly checked for use-before-def.
        self.phys: Dict[PhysReg, object] = {}
        for rclass, zero in ((RegClass.INT, 0), (RegClass.FLOAT, 0.0)):
            for index in range(machine.n_regs(rclass)):
                self.phys[PhysReg(index, rclass)] = zero
        self.global_base: Dict[str, int] = {}
        self._layout_globals()

    # -- memory layout ---------------------------------------------------------

    def _layout_globals(self) -> None:
        addr = GLOBAL_BASE
        for g in self.program.globals.values():
            addr = (addr + 7) & ~7
            self.global_base[g.name] = addr
            value: object = 0 if g.element_class is RegClass.INT else 0.0
            for i in range(g.n_elements):
                init = value
                if g.init is not None and i < len(g.init):
                    init = g.init[i]
                self.memory[addr + i * g.element_size] = init
            addr += g.size_bytes

    def globals_snapshot(self) -> Dict[str, tuple]:
        """Current contents of every global array, by name.

        The differential tester compares these across configurations:
        a miscompile that corrupts memory without reaching the return
        value (e.g. aliased spill slots flushed to a shared array) is
        invisible to the return value alone.
        """
        snapshot: Dict[str, tuple] = {}
        for g in self.program.globals.values():
            base = self.global_base[g.name]
            snapshot[g.name] = tuple(
                self.memory[base + i * g.element_size]
                for i in range(g.n_elements))
        return snapshot

    # -- execution ------------------------------------------------------------

    def run(self, entry: Optional[str] = None, args: List = ()) -> RunResult:
        recorder = _trace_current()
        if recorder is None:
            return self._run(entry, args)
        with recorder.span("sim.run", entry=entry or self.program.entry_name):
            result = self._run(entry, args)
        count_run(recorder, result.stats)
        return result

    def _run(self, entry: Optional[str], args: List) -> RunResult:
        from .predecode import drive, run_stats
        value, n, eng = drive(self, entry, args, self.cache)
        stats = run_stats(eng, n, self.machine, eng.memory_cycles)
        if self.cache is not None:
            stats.cache = self.cache.stats
        return RunResult(value, stats)


_COUNTED_STATS = ("cycles", "memory_cycles", "op_cycles", "instructions",
                  "loads", "stores", "spill_loads", "spill_stores",
                  "ccm_loads", "ccm_stores", "calls")


def count_run(recorder, stats: RunStats) -> None:
    """Report one finished run's statistics as ``sim.*`` counters."""
    recorder.counter("sim.runs")
    for name in _COUNTED_STATS:
        recorder.counter(f"sim.{name}", getattr(stats, name))


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("integer division by zero", kind="trap")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise SimulationError("float division by zero", kind="trap")
    return a / b


_INT_BINOPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MULT: lambda a, b: a * b,
    Opcode.DIV: _int_div,
    Opcode.MOD: _int_mod,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.LSHIFT: lambda a, b: a << b,
    Opcode.RSHIFT: lambda a, b: a >> b,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
}

_INT_IMMOPS = {
    Opcode.ADDI: lambda a, i: a + i,
    Opcode.SUBI: lambda a, i: a - i,
    Opcode.MULTI: lambda a, i: a * i,
    Opcode.DIVI: lambda a, i: _int_div(a, i),
    Opcode.ANDI: lambda a, i: a & i,
    Opcode.ORI: lambda a, i: a | i,
    Opcode.XORI: lambda a, i: a ^ i,
    Opcode.LSHIFTI: lambda a, i: a << i,
    Opcode.RSHIFTI: lambda a, i: a >> i,
}

_FLOAT_BINOPS = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMULT: lambda a, b: a * b,
    Opcode.FDIV: _float_div,
    Opcode.FCMPEQ: lambda a, b: int(a == b),
    Opcode.FCMPNE: lambda a, b: int(a != b),
    Opcode.FCMPLT: lambda a, b: int(a < b),
    Opcode.FCMPLE: lambda a, b: int(a <= b),
    Opcode.FCMPGT: lambda a, b: int(a > b),
    Opcode.FCMPGE: lambda a, b: int(a >= b),
}
