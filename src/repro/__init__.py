"""repro: a reproduction of "Compiler-Controlled Memory"
(Keith D. Cooper & Timothy J. Harvey, ASPLOS 1998).

The package is a complete prototype compiler and evaluation rig:

* :mod:`repro.ir` — ILOC-like three-address IR with parser/printer
* :mod:`repro.frontend` — MFL, a small Fortran-flavored source language
* :mod:`repro.analysis` — CFG, dominators, liveness, loops, SSA, call graph
* :mod:`repro.opt` — scalar optimizer (SCCP, GVN, DCE, peephole)
* :mod:`repro.regalloc` — Chaitin-Briggs graph-coloring allocation
* :mod:`repro.ccm` — the paper's contribution: post-pass and integrated
  compiler-controlled-memory spill allocation, plus spill compaction
* :mod:`repro.machine` — the paper's abstract machine, cycle-accurate
  simulator, and cache models
* :mod:`repro.workloads` — the 59-routine synthetic suite
* :mod:`repro.harness` — regenerates every table and figure

Quickstart::

    from repro import compile_and_run

    source = '''
    global A: float[64] = {1.0, 2.0, 3.0}
    func main(): float {
      var s: float = 0.0
      var i: int = 0
      while (i < 64) { s = s + A[i % 3]; i = i + 1 }
      return s
    }
    '''
    result = compile_and_run(source, variant="postpass_cg")
    print(result.value, result.stats.cycles)

Importing the package loads nothing else: every public name below
resolves on first use (a PEP 562 module ``__getattr__``), so the CLI
pays only for the subcommand it runs.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .machine import DataCache, MachineConfig, RunResult

__version__ = "1.0.0"

#: the paper's four allocator variants; see :mod:`repro.harness.experiment`
VARIANTS = ("baseline", "postpass", "postpass_cg", "integrated")

#: public name -> the module that defines it, imported on first access
_LAZY = {
    "compile_source": ".frontend",
    "compile_program": ".harness.experiment",
    **dict.fromkeys(("DataCache", "MachineConfig", "PAPER_MACHINE_1024",
                     "PAPER_MACHINE_512", "RunResult", "Simulator"),
                    ".machine"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def compile_and_run(source: str, variant: str = "baseline",
                    machine: Optional[MachineConfig] = None,
                    cache: Optional[DataCache] = None,
                    entry: Optional[str] = None) -> RunResult:
    """Compile MFL source under an allocator variant and simulate it.

    ``variant`` is one of :data:`VARIANTS` (see
    :mod:`repro.harness.experiment`); ``machine`` defaults to the
    paper's 512-byte CCM machine.
    """
    from .frontend import compile_source
    from .harness.experiment import compile_program
    from .machine import PAPER_MACHINE_512, Simulator

    machine = machine if machine is not None else PAPER_MACHINE_512
    program = compile_source(source)
    compile_program(program, machine, variant)
    simulator = Simulator(program, machine, cache=cache,
                          poison_caller_saved=True)
    return simulator.run(entry=entry)


__all__ = [
    "compile_and_run", "compile_source", "compile_program", "VARIANTS",
    "DataCache", "MachineConfig", "PAPER_MACHINE_1024", "PAPER_MACHINE_512",
    "RunResult", "Simulator", "__version__",
]
