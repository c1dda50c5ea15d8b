"""Shared fixtures and IR-building helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.frontend import compile_source
from repro.harness.experiment import compile_program
from repro.ir import (Function, GlobalArray, Instruction, IRBuilder, Opcode,
                      Program, RegClass, parse_program, verify_program)
from repro.machine import MachineConfig, PAPER_MACHINE_512, Simulator


@pytest.fixture(autouse=True)
def _restore_regalloc_engine():
    """Every test ends as it started, following the same explicit
    engine or ``$REPRO_REGALLOC_ENGINE``: a :func:`set_regalloc_engine`
    call, or an in-process CLI run with ``--regalloc-engine`` (which
    also exports the variable), is undone after the test."""
    from repro.regalloc import engine

    saved_engine = engine._engine
    saved_env = os.environ.get(engine._ENV)
    yield
    engine._engine = saved_engine
    if saved_env is None:
        os.environ.pop(engine._ENV, None)
    else:
        os.environ[engine._ENV] = saved_env


def simulate(program, machine=None, **kwargs):
    """Run a program to completion and return the RunResult."""
    return Simulator(program, machine or PAPER_MACHINE_512, **kwargs).run()


def build_loop_sum_program(n: int = 10) -> Program:
    """sum(A[0..n)) over an int array: the canonical small test program."""
    prog = Program("loopsum")
    prog.add_global(GlobalArray("A", n * 4, RegClass.INT,
                                init=list(range(n))))
    fn = Function("main")
    prog.add_function(fn)
    b = IRBuilder(fn)
    b.new_block("entry")
    i = b.loadi(0)
    total = b.loadi(0)
    base = b.loadg("A")
    limit = b.loadi(n)
    b.jump("head1")
    b.new_block("head")
    cond = b.cmp(Opcode.CMPLT, i, limit)
    b.cbr(cond, "body2", "exit3")
    b.new_block("body")
    offset = b.multi(i, 4)
    addr = b.add(base, offset)
    value = b.load(addr)
    b.emit(Instruction(Opcode.ADD, [total], [total, value]))
    b.emit(Instruction(Opcode.ADDI, [i], [i], imm=1))
    b.jump("head1")
    b.new_block("exit")
    b.ret(total)
    verify_program(prog)
    return prog


def compile_mfl(source: str, variant: str = "baseline",
                machine: MachineConfig = PAPER_MACHINE_512) -> Program:
    """MFL -> fully compiled program under the given variant."""
    prog = compile_source(source)
    compile_program(prog, machine, variant)
    return prog


def assert_close(a, b, rel=1e-9):
    scale = max(1.0, abs(a), abs(b))
    assert abs(a - b) <= rel * scale, f"{a!r} != {b!r}"


@pytest.fixture
def loop_sum_program() -> Program:
    return build_loop_sum_program()


@pytest.fixture
def machine() -> MachineConfig:
    return PAPER_MACHINE_512


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """A machine so small that almost everything spills."""
    return MachineConfig(n_int_regs=6, n_float_regs=6, n_args=2,
                         callee_saved_start=5, ccm_bytes=128)
