"""The experiment harness compiles every variant from one compile plan
per workload ≡ compiling each variant on its own.

:class:`~repro.harness.ExperimentRunner` keeps one
:class:`~repro.exec.plan.CompilePlan` per workload: one Chaitin-Briggs
allocation placed for both CCM sizes, then one CCM decision per job.
These tests hold its :class:`VariantResult` rows equal to the
per-variant compile path kept in ``harness_oracle.py``, count the
allocator runs the plan saves, and check that a runner served wholly
from the artifact cache compiles nothing.
"""

import pytest

from harness_oracle import variant_row_oracle

from repro.exec import ArtifactCache
from repro.exec import plan as plan_module
from repro.harness import ExperimentRunner
from repro.harness.experiment import VARIANTS
from repro.regalloc import ChaitinBriggsAllocator
from repro.workloads.suite import build_routine, suite_names

#: three of the ``suite-paper`` benchmark routines, and prophy: four
#: functions, each a caller or a callee
TIER1_ROUTINES = ("fmin", "saturr", "ddeflu", "prophy")
#: the runner's two sizes, and one it does not place for
TIER1_SIZES = (512, 1024, 256)
#: the ``suite-paper`` benchmark's jobs
PAPER_ROUTINES = ("blts", "saturr", "ddeflu", "fmin")
SSA_ROUTINES = ("fmin", "saturr", "prophy", "rkf45", "spline")


def _check_rows(routines, sizes):
    runner = ExperimentRunner(verify_values=True)
    for routine in routines:
        for size in sizes:
            for variant in VARIANTS:
                row = runner.run(routine, variant, size)
                expected = variant_row_oracle(
                    routine, build_routine(routine), variant,
                    runner.machine(size))
                assert row.to_json() == expected.to_json(), \
                    (routine, variant, size)


@pytest.mark.parametrize("routine", TIER1_ROUTINES)
def test_plan_rows_match_oracle(routine):
    _check_rows([routine], TIER1_SIZES)


def test_paper_jobs_allocate_once_per_function(monkeypatch):
    """The 16 ``suite-paper`` jobs run Chaitin-Briggs once per function
    of each routine: 9 runs, where compiling each variant on its own
    made 36."""
    runs = []
    real_run = ChaitinBriggsAllocator.run

    def counting(self):
        runs.append(self.fn.name)
        return real_run(self)

    monkeypatch.setattr(ChaitinBriggsAllocator, "run", counting)
    runner = ExperimentRunner(verify_values=True)
    for routine in PAPER_ROUTINES:
        for variant in VARIANTS:
            runner.run(routine, variant, 512)
    functions = sum(len(build_routine(r).functions) for r in PAPER_ROUTINES)
    assert functions == 9
    assert len(runs) == functions


def test_warm_runner_compiles_nothing(monkeypatch, tmp_path):
    """A runner whose jobs all hit the artifact cache creates no plan:
    it never optimizes or allocates."""
    artifacts = ArtifactCache(str(tmp_path / "cache"))
    cold = ExperimentRunner(verify_values=True, artifacts=artifacts)
    jobs = [(variant, size) for variant in VARIANTS for size in (512, 1024)]
    rows = [cold.run("fmin", variant, size).to_json()
            for variant, size in jobs]

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm runner compiled")

    monkeypatch.setattr(plan_module, "optimize_program", forbidden)
    monkeypatch.setattr(plan_module, "allocate_function", forbidden)
    warm = ExperimentRunner(verify_values=True, artifacts=artifacts)
    assert [warm.run("fmin", variant, size).to_json()
            for variant, size in jobs] == rows
    assert warm.stats.cache_hits == len(jobs)
    assert warm._plans == {}


@pytest.mark.fuzz
@pytest.mark.parametrize("routine", suite_names())
def test_fuzz_suite_rows_match_oracle(routine):
    _check_rows([routine], (512, 1024))


@pytest.mark.fuzz
@pytest.mark.parametrize("routine", SSA_ROUTINES)
def test_fuzz_ssa_rows_match_oracle(monkeypatch, routine):
    """Under the SSA backend, integrated keeps one allocation per size."""
    monkeypatch.setenv("REPRO_REGALLOC_ENGINE", "ssa")
    _check_rows([routine], (512, 1024))
