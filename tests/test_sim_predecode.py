"""The simulator's closure-compiled driver, pinned against the interpreter.

Every test runs the same program under the shipped simulator and the
reference interpreter (``sim_oracle.py``) and asserts the
observable behaviour — return value, every ``RunStats`` field, globals,
architectural register file, exception type/kind/message — is
bit-identical.  The broad randomized sweep lives in
``test_sim_engine_fuzz.py``; this file pins the hand-written corner
cases (traps, poisoning, re-decoding after in-place mutation, no
decode outliving its program) with literal expected values.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.ir import PhysReg, RegClass, parse_program
from repro.machine import (BatchMember, BatchSimulation, CacheConfig,
                           DataCache, MachineConfig, OutOfFuel,
                           SimulationError, Simulator)
from repro.machine.predecode import decode_function

from sim_oracle import simulator

ENGINES = ("interp", "predecode")

TRIVIAL = """
.program p
.func main()
entry:
    loadI 1 => %v0
    ret %v0
.endfunc
"""


def run_both(text, machine=None, entry=None, args=(), cache=False, **kwargs):
    """Run under both engines, assert identical results, return them."""
    outcomes = []
    for engine in ENGINES:
        sim = simulator(engine, parse_program(text),
                        machine or MachineConfig(),
                        cache=DataCache(CacheConfig()) if cache else None,
                        **kwargs)
        result = sim.run(entry=entry, args=list(args))
        outcomes.append((sim, result))
    (interp_sim, interp), (pre_sim, pre) = outcomes
    assert interp.value == pre.value
    assert interp.stats == pre.stats
    assert interp_sim.globals_snapshot() == pre_sim.globals_snapshot()
    assert interp_sim.phys == pre_sim.phys
    return interp, pre


def error_both(text, machine=None, entry=None, args=(), **kwargs):
    """Assert both engines raise the same error; return the exception."""
    errors = []
    for engine in ENGINES:
        sim = simulator(engine, parse_program(text),
                        machine or MachineConfig(), **kwargs)
        with pytest.raises(SimulationError) as info:
            sim.run(entry=entry, args=list(args))
        errors.append(info.value)
    interp_exc, pre_exc = errors
    assert type(interp_exc) is type(pre_exc)
    assert interp_exc.kind == pre_exc.kind
    assert str(interp_exc) == str(pre_exc)
    return pre_exc


class TestTrapEquivalence:
    def test_integer_division_by_zero(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 7 => %v0
    loadI 0 => %v1
    div %v0, %v1 => %v2
    ret %v2
.endfunc
""")
        assert exc.kind == "trap"
        assert "division by zero" in str(exc)

    def test_modulo_by_zero(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 7 => %v0
    loadI 0 => %v1
    mod %v0, %v1 => %v2
    ret %v2
.endfunc
""")
        assert exc.kind == "trap"

    def test_negative_shift_count(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
    loadI -2 => %v1
    lshift %v0, %v1 => %v2
    ret %v2
.endfunc
""")
        assert exc.kind == "trap"

    def test_float_division_by_zero(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadFI 1.0 => %w0
    loadFI 0.0 => %w1
    fdiv %w0, %w1 => %w2
    ret %w2
.endfunc
""")
        assert exc.kind == "trap"

    def test_f2i_non_finite(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadFI 1e308 => %w0
    fmult %w0, %w0 => %w1
    f2i %w1 => %v0
    ret %v0
.endfunc
""")
        assert exc.kind == "trap"

    def test_out_of_fuel(self):
        text = """
.program p
.func main()
entry:
    jump -> entry
.endfunc
"""
        errors = []
        for engine in ENGINES:
            sim = simulator(engine, parse_program(text), fuel=10)
            with pytest.raises(OutOfFuel) as info:
                sim.run()
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])

    def test_call_unknown_function(self):
        exc = error_both("""
.program p
.func main()
entry:
    call nosuch() => %v0
    ret %v0
.endfunc
""")
        assert "unknown function" in str(exc)

    def test_void_return_into_register(self):
        exc = error_both("""
.program p
.func main()
entry:
    call callee() => %v0
    ret %v0
.endfunc
.func callee()
entry:
    ret
.endfunc
""")
        assert "void" in str(exc)

    def test_call_arity_mismatch(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
    call callee(%v0) => %v1
    ret %v1
.endfunc
.func callee()
entry:
    loadI 2 => %v0
    ret %v0
.endfunc
""")
        assert str(exc)

    def test_unbounded_recursion_exhausts_fuel(self):
        text = """
.program p
.func main()
entry:
    call main() => %v0
    ret %v0
.endfunc
"""
        errors = []
        for engine in ENGINES:
            sim = simulator(engine, parse_program(text), fuel=500)
            with pytest.raises(OutOfFuel) as info:
                sim.run()
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])


class TestBadReads:
    def test_undefined_register_read(self):
        exc = error_both("""
.program p
.func main()
entry:
    add %v0, %v0 => %v1
    ret %v1
.endfunc
""")
        assert "undefined" in str(exc)
        assert "%v0" in str(exc)

    def test_poisoned_register_read(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 3 => r0
    call clobber()
    addI r0, 1 => r1
    ret r1
.endfunc
.func clobber()
entry:
    ret
.endfunc
""", poison_caller_saved=True)
        assert "poisoned" in str(exc)

    def test_return_value_register_not_poisoned(self):
        interp, pre = run_both("""
.program p
.func main()
entry:
    call callee() => r0
    ret r0
.endfunc
.func callee()
entry:
    loadI 9 => %v0
    ret %v0
.endfunc
""", poison_caller_saved=True)
        assert pre.value == 9

    def test_fell_off_block_end(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
.endfunc
""")
        assert "fell off" in str(exc)


class TestMemoryAndCCM:
    def test_global_load_store_roundtrip(self):
        interp, pre = run_both("""
.program p
.global A 8 int = 5,7
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    loadI 40 => %v2
    add %v1, %v2 => %v3
    store %v3, %v0
    load %v0 => %v4
    ret %v4
.endfunc
""")
        assert pre.value == 45
        assert pre.stats.loads == 2
        assert pre.stats.stores == 1

    def test_ccm_out_of_bounds(self):
        exc = error_both("""
.program p
.func main()
entry:
    loadI 1 => %v0
    ccmst %v0 => [4096]
    ret %v0
.endfunc
""", machine=MachineConfig(ccm_bytes=512))
        assert "exceeds" in str(exc)

    def test_ccm_load_unwritten(self):
        exc = error_both("""
.program p
.func main()
entry:
    ccmld [0] => %v0
    ret %v0
.endfunc
""")
        assert "unwritten" in str(exc)

    def test_ccm_roundtrip_counts(self):
        interp, pre = run_both("""
.program p
.func main()
entry:
    loadI 11 => %v0
    ccmst %v0 => [0]
    ccmld [0] => %v1
    ret %v1
.endfunc
""")
        assert pre.value == 11
        assert pre.stats.ccm_loads == 1
        assert pre.stats.ccm_stores == 1

    def test_data_cache_stats_identical(self):
        interp, pre = run_both("""
.program p
.global A 16 int = 1,2,3,4
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    load %v0 => %v2
    loadI 8 => %v3
    add %v0, %v3 => %v4
    load %v4 => %v5
    add %v1, %v2 => %v6
    add %v6, %v5 => %v7
    ret %v7
.endfunc
""", cache=True)
        assert pre.stats.cache is not None
        assert interp.stats.cache == pre.stats.cache
        assert pre.stats.cache.hits + pre.stats.cache.misses == 3


class TestStatePersistence:
    def test_entry_args_and_named_entry(self):
        interp, pre = run_both("""
.program p
.func main()
entry:
    loadI 0 => %v0
    ret %v0
.endfunc
.func addmul(%v0, %v1)
entry:
    add %v0, %v1 => %v2
    mult %v2, %v1 => %v3
    ret %v3
.endfunc
""", entry="addmul", args=(3, 4))
        assert pre.value == 28

    def test_memory_persists_across_runs(self):
        text = """
.program p
.global A 4 int = 1
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    addI %v1, 1 => %v2
    store %v2, %v0
    ret %v2
.endfunc
"""
        for engine in ENGINES:
            sim = simulator(engine, parse_program(text))
            assert sim.run().value == 2
            assert sim.run().value == 3

    def test_phys_registers_persist_across_runs(self):
        text = """
.program p
.func main()
entry:
    loadI 7 => r5
    ret r5
.endfunc
"""
        for engine in ENGINES:
            sim = simulator(engine, parse_program(text))
            sim.run()
            assert sim.phys[PhysReg(5, RegClass.INT)] == 7

    def test_inplace_mutation_invalidates_decode_cache(self):
        # optimization passes mutate Instructions in place (e.g. the
        # postpass retargets LOAD to CCMLD); a rerun must re-decode
        prog = parse_program(TRIVIAL)
        sim = Simulator(prog)
        assert sim.run().value == 1
        instr = prog.functions["main"].entry.instructions[0]
        instr.imm = 42
        assert sim.run().value == 42


class TestDecodedFunctionShape:
    def test_decode_split_by_cache_presence(self):
        prog = parse_program("""
.program p
.global A 4 int = 1
.func main()
entry:
    loadG @A => %v0
    load %v0 => %v1
    ret %v1
.endfunc
""")
        fn = prog.functions["main"]
        plain = decode_function(fn, MachineConfig(), False)
        cached = decode_function(fn, MachineConfig(), True)
        assert plain is not cached

    def test_shared_decode_keeps_poison_semantics(self):
        # a call returning into %v0 and one returning into r0 are
        # different programs with different caller-saved poison sets
        # (%v0 and r0 hash alike, which once let them share a decode)
        template = """
.program p
.func main()
entry:
    call callee() => {dst}
    ret {dst}
.endfunc
.func callee()
entry:
    loadI 9 => %v0
    ret %v0
.endfunc
"""
        for dst in ("%v0", "r0"):
            for engine in ENGINES:
                sim = simulator(engine,
                                parse_program(template.format(dst=dst)),
                                poison_caller_saved=True)
                assert sim.run().value == 9, (dst, engine)


CALLER = """
.program p
.global A 4 int = 5
.func main()
entry:
    call callee() => %v0
    ret %v0
.endfunc
.func callee()
entry:
    loadG @A => %v0
    load %v0 => %v1
    ret %v1
.endfunc
"""


class TestNoDecodeOutlivesItsProgram:
    """A decoded form lives only as long as its run: once a simulated
    program is dropped, every one of its functions is collectable."""

    @staticmethod
    def _function_refs(run):
        prog = parse_program(CALLER)
        refs = [weakref.ref(fn) for fn in prog.functions.values()]
        run(prog)
        return refs

    @staticmethod
    def _assert_collected(refs):
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    def test_scalar_run(self):
        def run(prog):
            assert Simulator(prog).run().value == 5

        self._assert_collected(self._function_refs(run))

    def test_batch_run(self):
        def run(prog):
            members = [BatchMember(dataclasses.replace(
                MachineConfig(), memory_latency=2 + i),
                cache=CacheConfig() if i else None) for i in range(3)]
            results = BatchSimulation(prog, members).run()
            assert [r.value for r in results] == [5, 5, 5]

        self._assert_collected(self._function_refs(run))
