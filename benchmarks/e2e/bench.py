"""Canonical end-to-end benchmark of the CCM compiler.

Usage, from the root of the repository::

    python3 benchmarks/e2e/bench.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE]

Each workload runs in fresh child processes (``workloads.py``) with the
``REPRO_*`` environment variables removed, so the default engines are
used, and with private temporary directories under ``.bench_tmp/``,
removed at exit.  Without ``--workload`` all four workloads run in turn.

``--trace 0`` (the default) prints the end-to-end metrics of
``BENCHMARK.json``: three children do the set-up (``setup_s`` is their
median) and the middle one also runs the timed body and the checks.
``--trace 1`` prints the per-layer metrics instead: one child runs the
body for half the time without tracing, a second runs the same passes
with the layer wrappers installed; the ratio of their times is the
tracing overhead.  ``--trace-out FILE`` (implies ``--trace 1``) writes
the traced child's spans as Chrome ``trace_event`` JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
appends one JSON record per workload run (commit, Python version,
nproc, seed, per-item rows) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import CACHE_GET, LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "workloads.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

#: a run, set-up included, must end within this many seconds
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def end_to_end_values(run: dict, setup_samples: List[float]) -> dict:
    """End-to-end metric values from the measured child's result.

    Every pass does the same work in the same order, so an item's time
    is its fastest over the passes: load from other processes only adds
    time.  Throughput is the items of one pass over the sum of their
    times; latency is the median item time.
    """
    fastest: Dict[str, float] = {}
    for row in run["rows"]:
        fastest[row["item"]] = min(row["wall_s"],
                                   fastest.get(row["item"], math.inf))
    return {
        "items_per_s": len(fastest) / sum(fastest.values()),
        "item_p50_ms": statistics.median(fastest.values()) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
        **run["quality"],
    }


def per_layer_values(traced: dict, plain: dict) -> dict:
    """Per-layer metric values from a traced child and the untraced
    child that ran the same passes."""
    stats = traced["layers"]["stats"]
    values: Dict[str, float] = {}
    for name in LAYER_NAMES:
        values[f"{name}.calls"], values[f"{name}.self_s"] = stats[name]
    gets = stats[CACHE_GET][0]
    values[f"{CACHE_GET}.hit_ratio"] = (
        traced["layers"]["cache_hits"] / gets if gets else 0.0)
    values["startup_s"] = traced["startup_s"]
    layer_s = sum(self_s for _, self_s in stats.values())
    values["unattributed_s"] = (traced["wall_s"] - layer_s
                                - traced["body_startup_s"])
    values["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    return values


def format_metrics(specs: List[dict], values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric in ``specs``;
    raises BenchError when one was not measured."""
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]} for spec in specs}


def report_lines(workload: str, line: dict) -> List[str]:
    """One human-readable line per metric, then the failure count."""
    lines = [f"{workload:14} {name:44} {metric['value']:14.6g} "
             f"{metric['unit']}" for name, metric in line["metrics"].items()]
    lines.append(f"{workload:14} {'failed':44} {line['failed']:14d} "
                 f"of {line['attempted']}")
    return lines


def child_env(workdir: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = workdir
    return env


class Runner:
    """Spawns the children of one workload run and kills them on
    timeout; every child has ended when a method returns."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.children = 0

    def spawn(self, *options: str) -> dict:
        self.children += 1
        workdir = os.path.join(self.workdir, f"child{self.children}")
        os.makedirs(workdir)
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, CHILD, "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", workdir,
               "--result", result_path, *options]
        spawn_t = time.perf_counter()
        # own session: a timeout kills the child's request processes too
        proc = subprocess.Popen(cmd + ["--spawn-t", repr(spawn_t)],
                                cwd=ROOT, env=child_env(workdir),
                                stdout=sys.stderr.fileno(),
                                start_new_session=True)
        try:
            status = proc.wait(timeout=max(self.deadline - time.monotonic(),
                                           0.0))
        except subprocess.TimeoutExpired:
            status = None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if status is None:
            raise BenchError(f"{self.workload}: out of time")
        if status != 0:
            raise BenchError(f"{self.workload}: child exited {status}")
        with open(result_path) as handle:
            return json.load(handle)


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, trace_out: Optional[str]) -> dict:
    """One workload run; returns ``{"line": ..., "record": ...}``."""
    workdir = os.path.join(SCRATCH, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workload, seed, workdir,
                    time.monotonic() + TIME_LIMIT_S)
    try:
        if not trace:
            # set-up samples before and after the measured child, so
            # that their median spans the whole run
            before = runner.spawn("--setup-only")
            measured = runner.spawn("--seconds", str(seconds), "--probe")
            after = runner.spawn("--setup-only")
            setups = [before["setup_s"], measured["setup_s"],
                      after["setup_s"]]
            runs = [measured]
            metrics = format_metrics(spec["end_to_end"],
                                     end_to_end_values(measured, setups))
        else:
            plain = runner.spawn("--seconds", str(seconds / 2))
            options = ["--passes", str(plain["passes"]), "--trace"]
            if trace_out is not None:
                options += ["--trace-out", os.path.abspath(trace_out)]
            measured = runner.spawn(*options)
            setups = [plain["setup_s"], measured["setup_s"]]
            runs = [plain, measured]
            metrics = format_metrics(spec["per_layer"],
                                     per_layer_values(measured, plain))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)            # only when no other run uses it
    for run in runs:
        for problem in run["problems"]:
            print(f"{workload}: {problem}", file=sys.stderr)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "commit": _commit(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "passes": measured["passes"],
              "pass_walls": measured["pass_walls"], "setup_samples": setups,
              "rows": measured["rows"], "result": line}
    return {"line": line, "record": record}


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Canonical end-to-end benchmark (see README.md)")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="with --workload: Chrome trace_event JSON of "
                             "the traced run (implies --trace 1)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="append one JSON record per workload run")
    args = parser.parse_args(argv)
    if args.trace_out is not None and args.workload is None:
        parser.error("--trace-out needs --workload")
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(names)})")
        if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                           "__init__.py")):
            raise BenchError(f"no repro sources under {ROOT}/src")
        seconds = (args.seconds if args.seconds is not None
                   else spec["run_seconds"])
        trace = bool(args.trace) or args.trace_out is not None
        results = {}
        for workload in ([args.workload] if args.workload else names):
            results[workload] = run_workload(spec, workload, args.seed,
                                             seconds, trace, args.trace_out)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        print("\n".join(report_lines(workload, result["line"])))
    if args.out is not None:
        with open(args.out, "a") as handle:
            for result in results.values():
                handle.write(json.dumps(result["record"]) + "\n")
    if args.workload is not None:
        print(json.dumps(results[args.workload]["line"]))
    else:
        lines = [result["line"] for result in results.values()]
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{workload}/{name}": metric
                        for workload, result in results.items()
                        for name, metric in result["line"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
