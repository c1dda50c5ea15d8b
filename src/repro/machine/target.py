"""Abstract target machine description.

The default configuration is the paper's evaluation machine (section 4):
64 registers (32 general-purpose + 32 floating-point), single issue,
memory operations cost two cycles, everything else — including CCM
accesses — completes in a single cycle.

The calling convention is the repository's own (the paper does not fix
one): values return in ``r0``/``f0``, the first eight arguments of each
class travel in ``r1..r8`` / ``f1..f8``, registers below the
``callee_saved_start`` index are caller-saved, and the rest are preserved
by callees (implemented with the prologue-copy idiom in the allocator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ir import PhysReg, RegClass


@dataclass(frozen=True)
class MachineConfig:
    """Register files, latencies, and CCM geometry."""

    n_int_regs: int = 32
    n_float_regs: int = 32
    n_args: int = 8
    callee_saved_start: int = 26

    default_latency: int = 1
    memory_latency: int = 2
    ccm_latency: int = 1

    ccm_bytes: int = 512

    def n_regs(self, rclass: RegClass) -> int:
        return self.n_int_regs if rclass is RegClass.INT else self.n_float_regs

    # -- calling convention ---------------------------------------------------

    def return_reg(self, rclass: RegClass) -> PhysReg:
        return PhysReg(0, rclass)

    def arg_regs(self, rclass: RegClass) -> List[PhysReg]:
        return [PhysReg(i, rclass) for i in range(1, 1 + self.n_args)]

    def caller_saved(self, rclass: RegClass) -> List[PhysReg]:
        return [PhysReg(i, rclass) for i in range(0, self.callee_saved_start)]

    def callee_saved(self, rclass: RegClass) -> List[PhysReg]:
        return [PhysReg(i, rclass)
                for i in range(self.callee_saved_start, self.n_regs(rclass))]

    def allocatable(self, rclass: RegClass) -> List[PhysReg]:
        return [PhysReg(i, rclass) for i in range(self.n_regs(rclass))]


#: The paper's machine with a 512-byte CCM (Table 2 / Figure 3).
PAPER_MACHINE_512 = MachineConfig(ccm_bytes=512)

#: The paper's machine with a 1024-byte CCM (Table 3 / Figure 4).
PAPER_MACHINE_1024 = MachineConfig(ccm_bytes=1024)

#: Default export.
DEFAULT_MACHINE = PAPER_MACHINE_512
