"""Integrated CCM allocator (section 3.2) and spill-memory compaction
(Table 1 machinery) tests."""

import pytest

from conftest import assert_close, simulate

from repro.ccm import (CcmLocation,
                       allocate_function_integrated, compact_spill_memory,
                       find_spill_webs, analyze_webs)
from repro.frontend import compile_source
from repro.ir import (CCM_OPS, Opcode, SPILL_OPS, parse_function,
                      verify_program)
from repro.machine import MachineConfig, PAPER_MACHINE_512, Simulator
from repro.opt import optimize_program
from repro.regalloc import allocate_function, lower_calling_convention


def _count_ops(fn, opcodes):
    return sum(1 for _, i in fn.instructions() if i.opcode in opcodes)


def _pressure_program(n_vals=50, calls=False, stages=1):
    lines = ["global A: float[64] = {" +
             ", ".join(f"{(i % 7) + 0.5}" for i in range(64)) + "}"]
    if calls:
        lines.append("func leaf(x: float): float { return x * 0.5 }")
    lines.append("func main(): float {")
    lines.append("  var acc: float = 0.0")
    per_stage = n_vals // stages
    for s in range(stages):
        for i in range(per_stage):
            lines.append(f"  var t{s}_{i}: float = A[{(s * 13 + i) % 64}]")
        if calls and s == 0:
            lines.append("  acc = acc + leaf(t0_0)")
        acc = " + ".join(f"t{s}_{i}" for i in range(per_stage))
        lines.append(f"  acc = acc + {acc}")
    lines.append("  return acc")
    lines.append("}")
    return "\n".join(lines)


class TestCcmLocation:
    def test_equality_and_hash(self):
        assert CcmLocation(0, 4) == CcmLocation(0, 4)
        assert CcmLocation(0, 4) != CcmLocation(0, 8)
        assert len({CcmLocation(0, 4), CcmLocation(0, 4)}) == 1

    def test_overlap(self):
        loc = CcmLocation(8, 8)
        assert loc.overlaps(12, 4)
        assert loc.overlaps(4, 8)
        assert not loc.overlaps(0, 8)
        assert not loc.overlaps(16, 4)


class TestIntegratedAllocator:
    def _compile(self, source, machine=PAPER_MACHINE_512):
        prog = compile_source(source)
        expected = simulate(prog).value
        optimize_program(prog)
        for fn in prog.functions.values():
            lower_calling_convention(fn, machine)
            allocate_function_integrated(fn, machine)
        verify_program(prog)
        return prog, expected

    def test_spills_go_to_ccm(self):
        prog, expected = self._compile(_pressure_program())
        fn = prog.entry
        assert _count_ops(fn, CCM_OPS) > 0
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)

    def test_ccm_bound_respected(self):
        prog, _ = self._compile(_pressure_program(n_vals=80))
        result = Simulator(prog, PAPER_MACHINE_512,
                           poison_caller_saved=True).run()
        assert result.stats.max_ccm_offset < 512

    def test_overflow_falls_back_to_stack(self):
        machine = MachineConfig(ccm_bytes=32)
        prog, expected = self._compile(_pressure_program(n_vals=80), machine)
        fn = prog.entry
        assert _count_ops(fn, SPILL_OPS) > 0   # heavyweights remain
        assert _count_ops(fn, CCM_OPS) > 0     # but some promotion happened
        result = Simulator(prog, machine, poison_caller_saved=True).run()
        assert_close(result.value, expected)
        assert result.stats.max_ccm_offset < 32

    def test_values_live_across_calls_stay_on_stack(self):
        prog, expected = self._compile(_pressure_program(calls=True))
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)

    def test_faster_than_stack_spilling(self):
        source = _pressure_program()
        machine = PAPER_MACHINE_512
        baseline = compile_source(source)
        optimize_program(baseline)
        for fn in baseline.functions.values():
            lower_calling_convention(fn, machine)
            allocate_function(fn, machine)
        base_cycles = simulate(baseline).stats.cycles

        integrated, _ = self._compile(source)
        ccm_cycles = simulate(integrated).stats.cycles
        assert ccm_cycles < base_cycles

    def test_mixed_classes_share_ccm_safely(self):
        lines = ["global A: float[64] = {" +
                 ", ".join(f"{i + 1.0}" for i in range(64)) + "}",
                 "global B: int[64] = {" +
                 ", ".join(str(i) for i in range(64)) + "}",
                 "func main(): float {"]
        for i in range(40):
            lines.append(f"  var f{i}: float = A[{i}]")
        for i in range(40):
            lines.append(f"  var n{i}: int = B[{i}]")
        facc = " + ".join(f"f{i}" for i in range(40))
        nacc = " + ".join(f"n{i}" for i in range(40))
        lines.append(f"  return {facc} + float({nacc})")
        lines.append("}")
        prog, expected = self._compile("\n".join(lines))
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)


class TestCompaction:
    def _spilling_function(self, stages=3):
        machine = PAPER_MACHINE_512
        prog = compile_source(_pressure_program(n_vals=40 * stages,
                                                stages=stages))
        expected = simulate(prog).value
        optimize_program(prog)
        for fn in prog.functions.values():
            lower_calling_convention(fn, machine)
            allocate_function(fn, machine)
        return prog, expected

    def test_disjoint_stages_share_slots(self):
        prog, expected = self._spilling_function(stages=3)
        fn = prog.entry
        before = fn.frame_size
        result = compact_spill_memory(fn)
        assert result.bytes_after < before
        assert result.ratio < 1.0
        verify_program(prog)
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)

    def test_fully_live_cannot_compact(self):
        prog, expected = self._spilling_function(stages=1)
        result = compact_spill_memory(prog.entry)
        # everything is simultaneously live: nothing to merge
        assert result.ratio == pytest.approx(1.0, abs=0.15)
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)

    def test_no_spills_is_identity(self):
        fn = parse_function("""
.func f()
entry:
    ret
.endfunc
""")
        result = compact_spill_memory(fn)
        assert result.n_webs == 0
        assert result.ratio == 1.0

    def test_compacted_offsets_respect_interference(self):
        prog, _ = self._spilling_function(stages=3)
        fn = prog.entry
        compact_spill_memory(fn)
        webs = find_spill_webs(fn)
        inter = analyze_webs(fn, webs)
        by_id = {w.web_id: w for w in webs}
        for web in webs:
            for other_id in inter.neighbors(web.web_id):
                other = by_id[other_id]
                no_overlap = (web.offset + web.size <= other.offset or
                              other.offset + other.size <= web.offset)
                assert no_overlap, (web, other)

    def test_frame_size_updated(self):
        prog, _ = self._spilling_function(stages=3)
        fn = prog.entry
        compact_spill_memory(fn)
        from repro.ccm import spill_bytes_in_use
        assert fn.frame_size == spill_bytes_in_use(fn)
