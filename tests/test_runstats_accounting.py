"""Property test: the cycle accounting of RunStats is exhaustive.

Every cycle the simulator charges must land in exactly one bucket —
``op_cycles`` (non-memory instruction latencies) or ``memory_cycles``
(main-memory, cache, and CCM accesses) — so ``cycles`` always equals
their sum.
A category the simulator forgets to bucket (or double-counts) breaks
the identity on some program, so it is checked over the persistent
corpus, a band of fuzzer seeds, and the paper suite routines.
"""

import pytest

from conftest import build_loop_sum_program
from repro.difftest import iter_corpus
from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.harness.experiment import compile_program
from repro.machine import (MachineConfig, PAPER_MACHINE_512, SimulationError,
                           Simulator)
from repro.workloads.suite import build_routine

# a small but shape-diverse slice of the difftest lattice: each
# allocator family, both opt settings, spill-heavy "small" geometry
CONFIGS = [
    DiffConfig("baseline", True, False, 512),
    DiffConfig("postpass", False, False, 64),
    DiffConfig("postpass_cg", True, True, 512),
    DiffConfig("integrated", True, True, 64),
]

SEEDS = list(range(12))


def _assert_identity(stats, what):
    assert stats.cycles == stats.op_cycles + stats.memory_cycles, (
        f"{what}: cycles {stats.cycles} != op {stats.op_cycles} + "
        f"memory {stats.memory_cycles}")


def _check_compiled(program, machine, what):
    try:
        run = Simulator(program, machine, fuel=FUEL,
                        poison_caller_saved=True).run()
    except SimulationError:
        return          # trapping programs abandon their stats mid-run
    _assert_identity(run.stats, what)
    assert run.stats.cycles > 0, f"{what}: ran zero cycles"


def _check_source_everywhere(source, what):
    base = compile_source(source)
    for config in CONFIGS:
        program, machine = compile_config(base.clone(), config)
        _check_compiled(program, machine, f"{what} under {config.name}")


@pytest.mark.parametrize("seed", SEEDS)
def test_accounting_identity_fuzz_seeds(seed):
    _check_source_everywhere(generate_source(seed), f"seed {seed}")


_CORPUS = list(iter_corpus())


@pytest.mark.parametrize("name,source,meta", _CORPUS,
                         ids=[name for name, _, _ in _CORPUS])
def test_accounting_identity_corpus(name, source, meta):
    """The identity must hold even on programs that once found bugs."""
    _check_source_everywhere(source, f"corpus entry {name}")


@pytest.mark.parametrize("routine", ["twldrv", "fpppp", "rkf45"])
@pytest.mark.parametrize("variant", ["baseline", "postpass_cg"])
def test_accounting_identity_suite(routine, variant):
    prog = build_routine(routine)
    compile_program(prog, PAPER_MACHINE_512, variant)
    run = Simulator(prog, PAPER_MACHINE_512, poison_caller_saved=True).run()
    _assert_identity(run.stats, f"{routine}/{variant}")
    assert run.stats.memory_cycles > 0     # the suite is memory-bound


def test_accounting_identity_tiny_program():
    prog = build_loop_sum_program()
    machine = MachineConfig()
    compile_program(prog, machine, "baseline")
    run = Simulator(prog, machine).run()
    _assert_identity(run.stats, "loop_sum")
    # pure-scalar epilogue instructions land in op_cycles, never lost
    assert run.stats.op_cycles > 0
