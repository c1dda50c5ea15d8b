"""Whole-program compilation throughput of the SCC-wave engine.

Times the SCC-partitioned driver (:mod:`repro.exec.wholeprog`) on a
generated application — call-graph condensation, wave scheduling,
content-addressed coalescing, per-routine compile+promote — and
records **routines/sec** in ``extra_info``, the number the 10k-routine
scale claim is stated in.  Capture a machine-readable snapshot with::

    pytest benchmarks/test_wholeprog_throughput.py \
        --benchmark-json=BENCH_wholeprog.json

``TestWholeProgramSmokeGate`` is the CI smoke gate.  On a 500-routine
application the engine must be bit-identical to the monolithic
bottom-up walk (:func:`~repro.exec.wholeprog.monolithic_report`), and
coalescing must at least halve the compiles: clone families share one
compile per high-water signature.  Both are counts, not wall-clock
times, so the gate holds on any machine.
"""

from repro.exec.wholeprog import compile_whole_program, monolithic_report
from repro.machine import PAPER_MACHINE_512
from repro.workloads import AppProfile, generate_application

#: the CI smoke application: big enough that clone families dominate,
#: small enough that the monolithic oracle stays well under a minute
SMOKE_PROFILE = AppProfile(n_routines=500, seed=0)


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


class TestWholeProgramSmokeGate:
    """CI smoke gate: the engine matches the monolithic walk and
    coalesces at least half of the routines away."""

    def test_engine_matches_oracle_and_coalesces(self):
        app = generate_application(SMOKE_PROFILE)
        engine = compile_whole_program(app, PAPER_MACHINE_512, jobs=4)
        oracle = monolithic_report(app, PAPER_MACHINE_512,
                                   keep_routines=False)
        assert engine.signature == oracle.signature, (
            "engine and monolithic walk diverged on the smoke application")
        assert engine.unique_compiles * 2 <= engine.n_routines, (
            f"{engine.unique_compiles} unique compiles for "
            f"{engine.n_routines} routines: coalescing saved less than "
            f"half")
