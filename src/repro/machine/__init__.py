"""Abstract target machine: configuration, simulator, and cache models."""

from .batch import (BatchMember, BatchSimulation, BatchSplit, BatchedCaches,
                    arch_signature, batch_key, group_batches,
                    program_fingerprint, program_uses_ccm)
from .cache import CacheConfig, CacheStats, DataCache
from .simulator import (OutOfFuel, RunResult, RunStats, SimulationError,
                        Simulator, POISON)
from .target import (DEFAULT_MACHINE, MachineConfig, PAPER_MACHINE_1024,
                     PAPER_MACHINE_512)

__all__ = [
    "BatchMember", "BatchSimulation", "BatchSplit", "BatchedCaches",
    "arch_signature", "batch_key", "group_batches", "program_fingerprint",
    "program_uses_ccm",
    "CacheConfig", "CacheStats", "DataCache", "OutOfFuel", "RunResult",
    "RunStats", "SimulationError", "Simulator", "POISON",
    "DEFAULT_MACHINE", "MachineConfig", "PAPER_MACHINE_1024",
    "PAPER_MACHINE_512",
]
