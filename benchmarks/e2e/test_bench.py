"""Tests of the end-to-end benchmark, with every workload at a small size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import bench
import compare
import layers
import workloads

SPEC = bench.load_spec()


def _small(name, seed, workdir):
    """Each workload at test size: 3 seeds, 4 jobs, 100 routines and
    6 requests (two passes of three)."""
    if name == "difftest-cold":
        return workloads.DifftestCold(seed, workdir, fuzz_seeds=(0, 1, 2))
    if name == "suite-paper":
        return workloads.SuitePaper(seed, workdir, routines=("fmin",))
    if name == "wholeprog-250":
        return workloads.WholeProgram(seed, workdir, n_routines=100,
                                      oracle_routines=30)
    return workloads.WarmRerun(seed, workdir, difftest_seeds=1,
                               app_routines=40, table2_routines=1)


PASSES = {"warm-rerun": 2}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (untraced result, traced result, Chrome events)."""
    out = {}
    for name in workloads.WORKLOADS:
        root = tmp_path_factory.mktemp(name)
        passes = PASSES.get(name, 1)
        plain = workloads.run_workload(
            _small(name, 7, str(root / "plain")), time.perf_counter(),
            passes=passes)
        trace_out = str(root / "trace.json")
        traced = workloads.run_workload(
            _small(name, 7, str(root / "traced")), time.perf_counter(),
            passes=passes, trace=True, trace_out=trace_out)
        with open(trace_out) as handle:
            events = json.load(handle)["traceEvents"]
        out[name] = (plain, traced, events)
    return out


@pytest.fixture(scope="module")
def quality():
    return workloads.probe_quality()


def test_benchmark_json_lists_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["per_layer"]]
    for layer in layers.LAYER_NAMES:
        assert f"{layer}.calls" in names and f"{layer}.self_s" in names


def test_every_end_to_end_metric_is_printed_with_its_unit(runs, quality):
    for name, (plain, _, _) in runs.items():
        run = dict(plain, quality=quality[0])
        metrics = bench.format_metrics(
            SPEC["end_to_end"], bench.end_to_end_values(run, [0.5, 0.4]))
        text = "\n".join(bench.report_lines(name, {
            "metrics": metrics, "failed": 0, "attempted": 1}))
        for spec in SPEC["end_to_end"]:
            assert any(spec["name"] in line and line.endswith(spec["unit"])
                       for line in text.splitlines()), (name, spec)
            assert metrics[spec["name"]]["value"] > 0, (name, spec)


def test_every_per_layer_metric_is_printed_with_its_unit(runs):
    for name, (plain, traced, _) in runs.items():
        metrics = bench.format_metrics(SPEC["per_layer"],
                                       bench.per_layer_values(traced, plain))
        lines = bench.report_lines(name, {"metrics": metrics, "failed": 0,
                                          "attempted": 1})
        for spec in SPEC["per_layer"]:
            assert any(spec["name"] in line and line.endswith(spec["unit"])
                       for line in lines), (name, spec)


def test_no_item_fails(runs, quality):
    for name, (plain, traced, _) in runs.items():
        for run in (plain, traced):
            assert run["failed"] == 0, (name, run["problems"])
            assert run["attempted"] >= len(run["rows"]) > 0
    assert quality[2] == []


def _outcomes(run):
    return [{k: v for k, v in row.items() if k != "wall_s"}
            for row in run["rows"]]


def test_traced_and_untraced_runs_agree(runs, quality):
    for name, (plain, traced, _) in runs.items():
        assert _outcomes(plain) == _outcomes(traced), name
    tracer = layers.Tracer()
    installation = layers.install(tracer)
    try:
        traced_quality = workloads.probe_quality()
    finally:
        installation.uninstall()
    assert traced_quality == quality
    assert tracer.stats["machine.Simulator.run"][0] > 0


def test_each_workload_exercises_its_layers(runs):
    stats = {name: traced["layers"]["stats"]
             for name, (_, traced, _) in runs.items()}
    assert stats["difftest-cold"]["ir.verify_program"][0] > 0
    assert stats["suite-paper"]["regalloc.build_interference_graph"][0] > 0
    assert stats["wholeprog-250"]["opt.optimize_function"][0] > 0
    assert stats["wholeprog-250"]["ir.Program.clone"][0] == 0
    warm = runs["warm-rerun"][1]["layers"]
    assert warm["cache_hits"] == warm["stats"][layers.CACHE_GET][0] > 0


def test_chrome_trace_gives_back_the_self_times(runs):
    for name, (_, traced, events) in runs.items():
        recomputed = layers.self_times_from_chrome(events)
        for layer, (calls, self_s) in traced["layers"]["stats"].items():
            assert recomputed.get(layer, 0.0) == pytest.approx(
                self_s, rel=1e-6, abs=1e-6), (name, layer)
        assert all(e["args"]["item"] for e in events if e["cat"] == "layer")


def test_installer_rejects_a_missing_function():
    with pytest.raises(LookupError):
        layers.install(layers.Tracer(),
                       targets=[("repro.frontend", "no_such_function")])
    with pytest.raises(LookupError):
        layers.install(layers.Tracer(), targets=[("repro.ir", "Program.nope")])


def test_installer_rejects_a_function_bound_nowhere(monkeypatch):
    module = types.ModuleType("repro._bench_fake")
    module.__getattr__ = lambda name: (lambda: None)
    monkeypatch.setitem(sys.modules, "repro._bench_fake", module)
    with pytest.raises(LookupError, match="bound in no"):
        layers.install(layers.Tracer(),
                       targets=[("repro._bench_fake", "ghost")])
    # nothing stays installed after the error
    import repro.frontend
    assert not hasattr(repro.frontend.compile_source, "__wrapped__")


def test_install_and_uninstall_restore_every_alias():
    import repro.difftest.runner
    import repro.frontend
    original = repro.frontend.compile_source
    installation = layers.install(layers.Tracer())
    assert repro.difftest.runner.compile_source is repro.frontend.compile_source
    assert repro.frontend.compile_source.__wrapped__ is original
    installation.uninstall()
    assert repro.frontend.compile_source is original
    assert repro.difftest.runner.compile_source is original


def test_compare_accepts_equal_sets_and_rejects_a_shift(tmp_path, capsys):
    def write(path, items_per_s):
        record = {"workload": "difftest-cold", "result": {
            "attempted": 10, "failed": 0, "metrics": {
                "items_per_s": {"value": items_per_s, "unit": "1/s"}}}}
        path.write_text(json.dumps(record) + "\n")
        return str(path)

    a = write(tmp_path / "a.jsonl", 2.0)
    assert compare.main([a, write(tmp_path / "b.jsonl", 2.01)]) == 0
    assert compare.main([a, write(tmp_path / "c.jsonl", 1.0)]) == 1
    assert "DISAGREE" in capsys.readouterr().out


def test_refuses_to_run_without_the_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(here, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload",
         "difftest-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
