"""Whole-program compilation throughput: SCC-wave engine vs. the
serial bottom-up walk.

Times the SCC-partitioned driver (:mod:`repro.exec.wholeprog`) on a
generated application — call-graph condensation, wave scheduling,
content-addressed coalescing, per-routine compile+promote — and
records **routines/sec** in ``extra_info``, the number the 10k-routine
scale claim is stated in.  Capture a machine-readable snapshot with::

    pytest benchmarks/test_wholeprog_throughput.py \
        --benchmark-json=BENCH_wholeprog.json

``TestWholeProgramSpeedupGate`` is the CI smoke threshold: on a
500-routine application the engine must beat the serial walk (one
compile per routine, no coalescing, no cache) by
``WHOLEPROG_SPEEDUP_FLOOR`` — a wall-clock *ratio*, so the gate is
machine-independent — while staying bit-identical to it.  On a
single-core runner the ratio is carried entirely by coalescing (clone
families share one compile per high-water signature); worker-pool
parallelism stacks on top of it on multi-core hosts.
"""

import pytest

from repro.exec.wholeprog import compile_whole_program
from repro.machine import PAPER_MACHINE_512
from repro.workloads import AppProfile, generate_application

#: the CI smoke application: big enough that clone families dominate,
#: small enough that the serial reference walk stays under a minute
SMOKE_PROFILE = AppProfile(n_routines=500, seed=0)

#: floor on (serial walk wall) / (engine wall); measured ~2.9x on a
#: single core at 500 routines, higher with real worker parallelism
WHOLEPROG_SPEEDUP_FLOOR = 2.0


def test_wholeprog_engine_throughput(benchmark):
    app = generate_application(SMOKE_PROFILE)

    def compile_app():
        return compile_whole_program(app, PAPER_MACHINE_512, jobs=4)

    report = benchmark.pedantic(compile_app, rounds=2, iterations=1)
    assert report.n_routines == SMOKE_PROFILE.n_routines
    benchmark.extra_info["routines_per_sec"] = round(
        report.routines_per_sec, 1)
    benchmark.extra_info["unique_compiles"] = report.unique_compiles
    benchmark.extra_info["coalesced"] = report.coalesced
    benchmark.extra_info["n_waves"] = report.n_waves


def test_wholeprog_serial_walk_throughput(benchmark):
    app = generate_application(SMOKE_PROFILE)

    def compile_app():
        return compile_whole_program(app, PAPER_MACHINE_512, jobs=1,
                                     coalesce=False)

    report = benchmark.pedantic(compile_app, rounds=1, iterations=1)
    benchmark.extra_info["routines_per_sec"] = round(
        report.routines_per_sec, 1)


class TestWholeProgramSpeedupGate:
    """CI smoke gate: the engine must beat the serial walk and stay
    bit-identical to it."""

    def test_engine_speedup_and_equivalence(self):
        app = generate_application(SMOKE_PROFILE)
        engine = compile_whole_program(app, PAPER_MACHINE_512, jobs=4)
        serial = compile_whole_program(app, PAPER_MACHINE_512, jobs=1,
                                       coalesce=False)
        assert engine.signature == serial.signature, (
            "engine and serial walk diverged on the smoke application")
        speedup = serial.wall_s / max(engine.wall_s, 1e-9)
        assert speedup >= WHOLEPROG_SPEEDUP_FLOOR, (
            f"whole-program engine speedup {speedup:.2f}x < "
            f"{WHOLEPROG_SPEEDUP_FLOOR}x floor (engine {engine.wall_s:.2f}s"
            f" vs serial walk {serial.wall_s:.2f}s at "
            f"{SMOKE_PROFILE.n_routines} routines)")
