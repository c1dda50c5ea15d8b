"""Post-pass CCM allocator tests (paper section 3.1, Figure 1)."""

import pytest

from conftest import assert_close, simulate

from repro.ccm import (compact_spill_memory, promote_function,
                       promote_spills_postpass)
from repro.frontend import compile_source
from repro.ir import (CCM_OPS, SPILL_OPS, parse_function, parse_program,
                      verify_program)
from repro.machine import MachineConfig, PAPER_MACHINE_512, Simulator
from repro.opt import optimize_program
from repro.regalloc import allocate_function, lower_calling_convention


def _count_ops(fn, opcodes):
    return sum(1 for _, i in fn.instructions() if i.opcode in opcodes)


def _pressure_source(n_vals=50, calls=False):
    lines = ["global A: float[64] = {" +
             ", ".join(f"{(i % 7) + 0.5}" for i in range(64)) + "}"]
    if calls:
        lines.append("func leaf(x: float): float { return x * 0.5 }")
    lines.append("func main(): float {")
    for i in range(n_vals):
        lines.append(f"  var t{i}: float = A[{i % 64}]")
    if calls:
        lines.append("  var c: float = leaf(t0)")
    acc = " + ".join(f"t{i}" for i in range(n_vals))
    extra = " + c" if calls else ""
    lines.append(f"  return {acc}{extra}")
    lines.append("}")
    return "\n".join(lines)


def _compiled_with_spills(calls=False, machine=PAPER_MACHINE_512):
    prog = compile_source(_pressure_source(calls=calls))
    optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
        allocate_function(fn, machine)
    return prog


class TestPromoteFunction:
    def test_promotes_spills_to_ccm(self):
        prog = _compiled_with_spills()
        fn = prog.entry
        stack_before = _count_ops(fn, SPILL_OPS)
        assert stack_before > 0
        promotion = promote_function(fn, ccm_bytes=512)
        assert promotion.promoted
        assert _count_ops(fn, CCM_OPS) > 0
        assert _count_ops(fn, SPILL_OPS) < stack_before

    def test_semantics_preserved(self):
        expected = simulate(compile_source(_pressure_source())).value
        prog = _compiled_with_spills()
        promote_function(prog.entry, ccm_bytes=512)
        verify_program(prog)
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)

    def test_offsets_within_ccm(self):
        prog = _compiled_with_spills()
        promotion = promote_function(prog.entry, ccm_bytes=512)
        assert promotion.high_water <= 512
        result = Simulator(prog, PAPER_MACHINE_512).run()
        assert result.stats.max_ccm_offset < 512

    def test_tiny_ccm_leaves_heavyweights(self):
        prog = _compiled_with_spills()
        fn = prog.entry
        promotion = promote_function(fn, ccm_bytes=16)
        assert promotion.heavyweight
        assert promotion.high_water <= 16
        assert _count_ops(fn, SPILL_OPS) > 0

    def test_zero_ccm_promotes_nothing(self):
        prog = _compiled_with_spills()
        promotion = promote_function(prog.entry, ccm_bytes=0)
        assert promotion.promoted == []

    def test_zero_ccm_is_never_full(self):
        """A zero own mark meets a zero limit, yet no CCM is not a full
        one."""
        prog = _compiled_with_spills(calls=True)
        report = promote_spills_postpass(prog, MachineConfig(ccm_bytes=0),
                                         interprocedural=True)
        assert report.total_heavyweight > 0
        assert report.genuinely_full == []

    def test_cost_ordering_prefers_hot_webs(self):
        """With a CCM that fits only some webs, the loop-resident web
        must win over a cold one."""
        fn = parse_function("""
.func f(%v0)
entry:
    loadI 1 => %v1
    spill %v1 => [0]
    loadI 2 => %v2
    spill %v2 => [4]
    jump -> head
head:
    reload [0] => %v3
    cbr %v0 -> head, exit
exit:
    reload [4] => %v4
    ret %v4
.endfunc
""")
        promotion = promote_function(fn, ccm_bytes=4)
        assert len(promotion.promoted) == 1
        assert promotion.promoted[0].offset == 0  # the loop-carried one


class TestIntraprocedural:
    def test_live_across_call_not_promoted(self):
        prog = _compiled_with_spills(calls=True)
        report = promote_spills_postpass(prog, PAPER_MACHINE_512,
                                         interprocedural=False)
        main_promo = report.functions["main"]
        # values live across the leaf call stay heavyweight
        from repro.ccm import analyze_webs, find_spill_webs
        # after rewriting, remaining stack webs include the call-crossing ones
        fn = prog.functions["main"]
        remaining = find_spill_webs(fn)
        inter = analyze_webs(fn, remaining)
        assert any(w.web_id in inter.live_across_call for w in remaining) or \
            not main_promo.heavyweight

    def test_semantics(self):
        expected = simulate(
            compile_source(_pressure_source(calls=True))).value
        prog = _compiled_with_spills(calls=True)
        promote_spills_postpass(prog, PAPER_MACHINE_512, interprocedural=False)
        verify_program(prog)
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)


class TestInterprocedural:
    def _call_chain_program(self):
        """main -> mid -> leaf, pressure at every level."""
        lines = ["global A: float[64] = {" +
                 ", ".join(f"{(i % 5) + 1.0}" for i in range(64)) + "}"]
        for name, callee in (("leaf", None), ("mid", "leaf"),
                             ("main", "mid")):
            params = "x: float" if name != "main" else ""
            lines.append(f"func {name}({params}): float {{")
            for i in range(40):
                lines.append(f"  var t{i}: float = A[{i}]")
            call = ""
            if callee:
                lines.append(f"  var c: float = {callee}(t0)")
                call = " + c"
            acc = " + ".join(f"t{i}" for i in range(40))
            base = "" if name == "main" else " + x"
            lines.append(f"  return {acc}{call}{base}")
            lines.append("}")
        return "\n".join(lines)

    def _compile(self, interprocedural):
        prog = compile_source(self._call_chain_program())
        expected = simulate(prog).value
        optimize_program(prog)
        machine = PAPER_MACHINE_512
        for fn in prog.functions.values():
            lower_calling_convention(fn, machine)
            allocate_function(fn, machine)
        report = promote_spills_postpass(prog, machine,
                                         interprocedural=interprocedural)
        verify_program(prog)
        return prog, report, expected

    def test_semantics_with_nested_ccm_use(self):
        prog, report, expected = self._compile(True)
        assert_close(simulate(prog, poison_caller_saved=True).value, expected)

    def test_high_water_stacking(self):
        prog, report, expected = self._compile(True)
        leaf_hw = prog.functions["leaf"].ccm_high_water
        mid_hw = prog.functions["mid"].ccm_high_water
        main_hw = prog.functions["main"].ccm_high_water
        assert leaf_hw <= mid_hw <= main_hw

    def test_interprocedural_promotes_at_least_as_much(self):
        _, intra, _ = self._compile(False)
        _, inter, _ = self._compile(True)
        assert inter.total_promoted >= intra.total_promoted

    def test_cross_call_placements_above_callee_high_water(self):
        prog, report, _ = self._compile(True)
        mid = report.functions["mid"]
        leaf_hw = prog.functions["leaf"].ccm_high_water
        from repro.ccm import analyze_webs, find_spill_webs
        # every CCM op in mid belonging to a web live across the call to
        # leaf sits at an offset >= leaf's high water; verified
        # dynamically instead: simulate and watch for clobbers (done in
        # test_semantics_with_nested_ccm_use); here check the report
        for web in mid.promoted:
            offset = mid.offsets[web.web_id]
            assert offset + web.size <= 512


class TestRecursion:
    def test_recursive_function_conservative(self):
        prog = parse_program("""
.program p
.func rec(%v0)
entry:
    loadI 1 => %v1
    spill %v1 => [0]
    cbr %v0 -> stop, go
go:
    subI %v0, 1 => %v2
    call rec(%v2) => %v3
    reload [0] => %v4
    add %v3, %v4 => %v5
    ret %v5
stop:
    reload [0] => %v6
    ret %v6
.endfunc
.func main()
entry:
    loadI 3 => %v0
    call rec(%v0) => %v1
    ret %v1
.endfunc
""")
        prog.functions["rec"].frame_size = 4
        expected = simulate(prog).value
        machine = PAPER_MACHINE_512
        report = promote_spills_postpass(prog, machine, interprocedural=True)
        # the recursive function reports full-CCM usage
        assert prog.functions["rec"].ccm_high_water == machine.ccm_bytes
        # its call-crossing web must NOT be promoted (the nested
        # activation would clobber it)
        assert report.functions["rec"].promoted == []
        verify_program(prog)
        assert simulate(prog).value == expected


class TestSharedManagerInvalidation:
    """Promotion and compaction rewrite instructions in place; each
    stage analyzes the function afresh, so a later stage never reasons
    about code that no longer exists."""

    @pytest.mark.parametrize("engine", ["chaitin", "ssa"])
    def test_allocate_promote_reallocate_chain(self, engine):
        """Allocate, promote and compact one function at a time: the
        chain must produce a correct program under both allocator
        backends."""
        expected = simulate(compile_source(_pressure_source())).value
        prog = compile_source(_pressure_source())
        optimize_program(prog)
        machine = PAPER_MACHINE_512
        for fn in prog.functions.values():
            lower_calling_convention(fn, machine)
            allocate_function(fn, machine, engine=engine)
            promote_function(fn, ccm_bytes=machine.ccm_bytes)
            compact_spill_memory(fn)
        verify_program(prog)
        run = simulate(prog)
        assert_close(run.value, expected)
        assert run.stats.ccm_traffic > 0
