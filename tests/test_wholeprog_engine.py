"""The SCC-wave whole-program engine vs. the monolithic bottom-up walk.

The engine (SCC waves, coalescing, artifact cache, worker pool) must be
*bit-identical* — web ids, CCM offsets, high-water marks, promoted
sets — to the independent oracle, which compiles the application as
one ``Program`` through the established
:func:`repro.ccm.promote_spills_postpass` serial walk.  A small seed
range runs in tier 1; the ≥100-graph sweep and a 2,000-routine
application carry the ``fuzz`` marker.  Cross-process tests pin the
SCC numbering and wave order against hostile ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys

from dataclasses import replace

import pytest

from repro.exec import ArtifactCache, SweepStats
from repro.exec.wholeprog import (SccSchedule, compile_whole_program,
                                  monolithic_report)
from repro.machine import PAPER_MACHINE_512
from repro.workloads import AppProfile, generate_application

MACHINE = PAPER_MACHINE_512

#: tier-1 shapes: recursion-free, recursion-heavy, deep, family-free,
#: family-only, wide-fanout, tiny
SMOKE_PROFILES = [
    AppProfile(n_routines=20, seed=0),
    AppProfile(n_routines=24, seed=1, recursion_share=0.0),
    AppProfile(n_routines=24, seed=2, recursion_share=0.3),
    AppProfile(n_routines=30, seed=3, levels=8),
    AppProfile(n_routines=24, seed=4, family_share=0.0),
    AppProfile(n_routines=30, seed=5, family_share=0.95, family_size=8),
    AppProfile(n_routines=30, seed=6, max_fanout=6),
    AppProfile(n_routines=5, seed=7),
]

#: the smoke shapes on the paper machine, plus a recursive graph with no
#: CCM at all, where every mark is 0 and no routine is full
EQUIVALENCE_CASES = [
    pytest.param(profile, MACHINE, id=f"n{profile.n_routines}-s{profile.seed}")
    for profile in SMOKE_PROFILES
] + [pytest.param(AppProfile(n_routines=30, seed=2, recursion_share=0.2),
                  replace(MACHINE, ccm_bytes=0), id="n30-s2-ccm0")]

FUZZ_SEEDS = range(0, 100)

#: the family-heavy smoke shape: most routines are clones, so the
#: equivalence case covers routines whose outcome was coalesced
FAMILY_HEAVY = SMOKE_PROFILES[5]


def scc_schedule_json(adjacency):
    """Stable JSON of (components, waves) — the cross-process
    determinism probe: equal strings under any ``PYTHONHASHSEED``."""
    schedule = SccSchedule.build(adjacency)
    return json.dumps({"components": schedule.components,
                       "waves": schedule.waves})


def engine_report(app, machine=MACHINE, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("keep_routines", True)
    return compile_whole_program(app, machine, **kw)


def assert_identical(got, want, label):
    assert got.routines.keys() == want.routines.keys()
    for name in want.routines:
        assert got.routines[name] == want.routines[name], \
            f"{label}: routine {name} diverged"
    assert got.signature == want.signature, label
    assert got.genuinely_full == want.genuinely_full, label


class TestEquivalence:
    @pytest.mark.parametrize("profile,machine", EQUIVALENCE_CASES)
    def test_engine_matches_monolithic_walk(self, profile, machine):
        app = generate_application(profile)
        got = engine_report(app, machine)
        assert_identical(got, monolithic_report(app, machine),
                         f"seed {profile.seed}")
        if machine.ccm_bytes == 0:
            assert got.total_promoted == 0
            assert got.genuinely_full == 0
        if profile == FAMILY_HEAVY:
            assert got.coalesced > 0

    def test_parallel_matches_serial(self):
        app = generate_application(AppProfile(n_routines=40, seed=8))
        assert_identical(engine_report(app, jobs=2),
                         engine_report(app, jobs=1), "jobs=2")

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_engine_matches_monolithic_walk(self, seed):
        # vary every shape knob with the seed so the sweep covers
        # recursion-free/heavy, deep/shallow, and family-free graphs
        profile = AppProfile(
            n_routines=16 + (seed * 7) % 30, seed=seed,
            levels=(seed % 7) or 0, max_fanout=1 + seed % 5,
            recursion_share=(seed % 4) * 0.08,
            family_share=(seed % 5) * 0.2,
            family_size=4 + seed % 10)
        app = generate_application(profile)
        assert_identical(engine_report(app, jobs=1 + seed % 2),
                         monolithic_report(app, MACHINE), f"fuzz {seed}")

    @pytest.mark.fuzz
    def test_fuzz_2000_routines_match_monolithic_walk(self):
        app = generate_application(AppProfile(n_routines=2000, seed=0))
        got = compile_whole_program(app, MACHINE, jobs=4)
        want = monolithic_report(app, MACHINE, keep_routines=False)
        assert got.signature == want.signature
        assert got.n_routines == want.n_routines == 2000


class TestRecursiveReporting:
    """Satellite: cycle members report the conservative whole-CCM mark
    *distinctly* from genuinely-full procedures."""

    def app_with_cycles(self):
        return generate_application(
            AppProfile(n_routines=40, seed=2, recursion_share=0.2))

    def test_cycle_members_conservative_not_genuine(self):
        app = self.app_with_cycles()
        report = engine_report(app)
        cyclic = [n for n, s in app.routines.items() if s.recursive]
        assert cyclic
        for name in cyclic:
            row = report.routines[name]
            assert row["recursive"]
            assert row["reported_high_water"] == MACHINE.ccm_bytes
            # the own mark stays a real measurement, far below the limit
            assert row["own_high_water"] < MACHINE.ccm_bytes
        assert report.conservative_full == len(cyclic)
        assert report.genuinely_full == 0

    def test_monolithic_promotion_report_distinguishes(self):
        from repro.ccm import promote_spills_postpass
        from repro.frontend import compile_source
        from repro.regalloc import allocate_function, \
            lower_calling_convention
        from repro.opt import optimize_program

        app = self.app_with_cycles()
        prog = compile_source(app.whole_source(), name="app")
        optimize_program(prog)
        for fn in prog.functions.values():
            lower_calling_convention(fn, MACHINE)
            allocate_function(fn, MACHINE)
        report = promote_spills_postpass(prog, MACHINE,
                                         interprocedural=True)
        cyclic = {n for n, s in app.routines.items() if s.recursive}
        assert set(report.conservatively_full) == cyclic
        assert not report.genuinely_full
        member = report.functions[sorted(cyclic)[0]]
        assert member.conservatively_full
        assert member.reported_high_water == MACHINE.ccm_bytes
        assert member.high_water == member.ccm_bytes_used


class TestCacheAndStats:
    """Satellite: artifact-cache hit/miss/store counters flow into
    ``--stats`` via :class:`SweepStats`."""

    def test_cold_then_warm_cache(self, tmp_path):
        app = generate_application(AppProfile(n_routines=24, seed=3))
        cold_stats = SweepStats()
        cold = engine_report(app, artifacts=ArtifactCache(str(tmp_path)),
                             stats=cold_stats)
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_stores == cold.unique_compiles > 0
        assert cold_stats.jobs_executed == cold.unique_compiles

        warm_stats = SweepStats()
        warm = engine_report(app, artifacts=ArtifactCache(str(tmp_path)),
                             stats=warm_stats)
        assert_identical(warm, cold, "warm cache")
        assert warm_stats.cache_hits == warm.unique_compiles
        assert warm_stats.jobs_executed == 0
        assert warm_stats.cache_stores == 0
        json = warm_stats.to_json()["artifact_cache"]
        assert json["hits"] == warm.unique_compiles
        assert json["stores"] == 0

    def test_stage_attribution(self):
        app = generate_application(AppProfile(n_routines=20, seed=0))
        stats = SweepStats()
        engine_report(app, stats=stats)
        assert {"build", "compile", "promote", "wave"} <= set(stats.stages)
        assert stats.stages["wave"].calls == \
            SccSchedule.build(app.adjacency()).n_waves


class TestStreaming:
    def test_rows_stream_without_retention(self):
        app = generate_application(AppProfile(n_routines=30, seed=4))
        rows = {}
        report = compile_whole_program(
            app, MACHINE, jobs=1,
            stream=lambda name, row: rows.update({name: row}))
        assert report.routines is None  # flat-RSS mode retains nothing
        kept = engine_report(app)
        assert rows == kept.routines
        assert report.signature == kept.signature

    def test_aggregates_match_retained_rows(self):
        app = generate_application(AppProfile(n_routines=30, seed=5))
        report = engine_report(app)
        rows = report.routines.values()
        assert report.n_routines == len(rows)
        assert report.total_promoted == sum(len(r["placed"]) for r in rows)
        assert report.own_hw_sum == sum(r["own_high_water"] for r in rows)
        assert report.stack_overhead_sum == sum(
            r["reported_high_water"] - r["own_high_water"] for r in rows)
        assert sum(report.hw_histogram.values()) == len(rows)


class TestScheduleDeterminism:
    def test_waves_respect_dependencies(self):
        app = generate_application(AppProfile(n_routines=60, seed=6))
        schedule = SccSchedule.build(app.adjacency())
        for i, comp in enumerate(schedule.components):
            for name in comp:
                for callee in app.adjacency()[name]:
                    j = schedule.scc_of[callee]
                    if j != i:
                        assert schedule.waves[j] < schedule.waves[i]

    def test_recursion_flags(self):
        app = generate_application(
            AppProfile(n_routines=40, seed=2, recursion_share=0.2))
        schedule = SccSchedule.build(app.adjacency())
        flagged = {n for i, comp in enumerate(schedule.components)
                   for n in comp if schedule.recursive[i]}
        assert flagged == {n for n, s in app.routines.items() if s.recursive}

    @pytest.mark.parametrize("hashseed", ["0", "1", "4242"])
    def test_schedule_identical_across_hash_seeds(self, hashseed):
        """SCC numbering and wave order are PYTHONHASHSEED-independent —
        pinned cross-process, where the hash seed actually differs."""
        code = (
            "from test_wholeprog_engine import scc_schedule_json\n"
            "from repro.workloads import AppProfile, generate_application\n"
            "app = generate_application(AppProfile(n_routines=50, seed=9))\n"
            "print(scc_schedule_json(app.adjacency()))\n")
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        app = generate_application(AppProfile(n_routines=50, seed=9))
        assert out.stdout.strip() == scc_schedule_json(app.adjacency())


class TestCLI:
    def test_harness_whole_program_mode(self, capsys, tmp_path):
        from repro.harness.cli import main
        stats_path = tmp_path / "stats.json"
        report_path = tmp_path / "report.json"
        rc = main(["--whole-program", "--routines", "20", "--seed", "1",
                   "-j", "1", "--no-cache", "--report", str(report_path),
                   "--stats", str(stats_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Whole-program CCM packing" in out
        assert stats_path.exists()
        app = generate_application(AppProfile(n_routines=20, seed=1))
        want = monolithic_report(app, MACHINE, keep_routines=False)
        report = json.loads(report_path.read_text())
        assert report["signature"] == want.signature
        assert report["n_routines"] == 20
