"""Simulation-throughput benchmarks: the execute stage.

The bitset dataflow engine made compilation cheap enough that the
cycle-accurate simulator matters in every sweep, so simulated
instructions/second is a first-class watched quantity.  These
benchmarks run fpppp and twldrv — the suite's two largest routines —
through the simulator's one driver, two ways:

* scalar: one :class:`Simulator` run (one-time closure compilation per
  function, flat register files, baked immediates and branch targets);
* batch: one shared architectural pass fanned out over N timing-variant
  machine configurations (how the difftest lattice and the ablation
  grid simulate) — reported as *configs per second*.

The batch rows report per-config throughput at the batch width
a difftest lattice actually reaches, and a ratio gate pins the batched
pass to beating N scalar runs by a wide margin (target ≥3× on a cold
sweep's execute stage; the gate asserts a generous ≥1.5× so shared-
runner noise cannot flake it).  Each benchmark reports
``instructions`` in ``extra_info`` so instructions/second falls out of
the recorded mean.  A warmup round populates the per-function decode
cache, which is the steady-state a sweep sees: the 52-config difftest
lattice decodes each compiled artifact once and replays it many times.

Capture a machine-readable snapshot (shared with the compiler
benchmarks) with::

    pytest benchmarks/ --benchmark-json=BENCH_throughput.json
"""

import dataclasses
import time

import pytest

from repro.harness.experiment import compile_program
from repro.machine import (BatchMember, BatchSimulation, PAPER_MACHINE_512,
                           Simulator)
from repro.workloads import build_routine

ROUTINES = ("fpppp", "twldrv")

#: typical architectural-group width in a difftest lattice sweep
BATCH_WIDTH = 8


def _batch_members(width: int = BATCH_WIDTH):
    """Timing-only variants: one architectural group, ``width`` wide."""
    return [BatchMember(dataclasses.replace(
        PAPER_MACHINE_512, memory_latency=2 + i)) for i in range(width)]


@pytest.fixture(scope="module")
def compiled(request):
    """One compiled program per routine, shared by every row so the
    comparisons are artifact-for-artifact."""
    programs = {}
    for routine in ROUTINES:
        prog = build_routine(routine)
        compile_program(prog, PAPER_MACHINE_512, "integrated")
        programs[routine] = prog
    return programs


@pytest.mark.parametrize("routine", ROUTINES)
def test_sim_throughput(benchmark, compiled, routine):
    prog = compiled[routine]

    def simulate():
        return Simulator(prog, PAPER_MACHINE_512).run()

    result = benchmark.pedantic(simulate, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert result.stats.instructions > 0
    benchmark.extra_info["routine"] = routine
    benchmark.extra_info["instructions"] = result.stats.instructions
    benchmark.extra_info["instructions_per_second"] = round(
        result.stats.instructions / benchmark.stats.stats.mean)


@pytest.mark.parametrize("routine", ROUTINES)
def test_sim_batch_throughput(benchmark, compiled, routine):
    """Batched configs/second: one shared pass, BATCH_WIDTH members."""
    prog = compiled[routine]
    members = _batch_members()

    def simulate():
        return BatchSimulation(prog, members).run()

    results = benchmark.pedantic(simulate, rounds=3, iterations=1,
                                 warmup_rounds=1)
    assert len(results) == BATCH_WIDTH
    assert results[0].stats.instructions > 0
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["engine"] = "batch"
    benchmark.extra_info["routine"] = routine
    benchmark.extra_info["members"] = BATCH_WIDTH
    benchmark.extra_info["instructions"] = results[0].stats.instructions
    benchmark.extra_info["configs_per_second"] = round(BATCH_WIDTH / mean, 1)
    benchmark.extra_info["instructions_per_second"] = round(
        BATCH_WIDTH * results[0].stats.instructions / mean)


@pytest.mark.parametrize("routine", ROUTINES)
def test_sim_batch_beats_scalar_loop(compiled, routine):
    """Ratio gate: one batched pass over N members must clearly beat N
    scalar runs of the same members.

    Both sides include their decode: N scalar runs decode N times, the
    batched pass once.  The sweep-level target is ≥3× on a cold sweep's
    execute stage; this in-process gate asserts only ≥1.5× at width 8
    so shared-runner noise cannot flake it, while still catching any
    change that degrades the batched pass to per-member cost.
    """
    prog = compiled[routine]
    members = _batch_members()
    # one untimed pass first; no decode outlives a run, so each timed
    # scalar run decodes on its own and each batched pass decodes once
    BatchSimulation(prog, members).run()

    def best_of(fn, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def scalar_loop():
        for member in members:
            Simulator(prog, member.machine).run()

    def batched():
        BatchSimulation(prog, members).run()

    scalar_s = best_of(scalar_loop)
    batch_s = best_of(batched)
    speedup = scalar_s / batch_s
    assert speedup >= 1.5, (
        f"{routine}: batched pass only {speedup:.2f}x faster than "
        f"{BATCH_WIDTH} scalar runs ({batch_s:.3f}s vs {scalar_s:.3f}s)")
