"""The four canonical workloads, and the child process that measures one.

Each workload is a closed loop with one client: the next item starts
when the previous one has finished.  A run repeats *passes* over one
fixed set of items, in one order, until the time budget is spent, and
always finishes the pass it is in.  Every pass therefore does the same
work in the same order, garbage collections included, and the metrics
take each item's fastest pass: load from other processes on the machine
only ever adds time.  Each pass of a cold workload writes to a fresh
artifact-cache directory, as a first CLI run does.  The seed orders the
items; the whole-program workload also generates its application from
it.

``bench.py`` starts this file as a child process::

    python workloads.py --workload NAME --seed N --workdir DIR \\
        --result FILE --spawn-t T [--setup-only] [--seconds S | --passes N]
        [--probe] [--trace] [--trace-out FILE]

The child writes one JSON result to FILE.  ``--spawn-t`` is the
parent's ``time.perf_counter()`` just before the spawn; on Linux that
clock is CLOCK_MONOTONIC, shared by every process, so the child can
measure its own set-up time from the moment it was started.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from layers import Tracer, chrome_events, install, write_chrome_trace

from repro.difftest import config_lattice, generate_source, run_fuzz
from repro.difftest.runner import GEOMETRIES
from repro.exec import ArtifactCache
from repro.exec.compare import values_match
from repro.exec.wholeprog import compile_whole_program, monolithic_report
from repro.frontend import compile_source
from repro.harness import ExperimentRunner
from repro.harness.experiment import VARIANTS, compile_program
from repro.machine import MachineConfig, PAPER_MACHINE_512, Simulator
from repro.workloads import AppProfile, routine_source
# generate_application is a traced layer function: call it through the
# package attribute, which the wrapper installer rebinds
import repro.workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_REQUEST = os.path.join(HERE, "traced_request.py")

#: the cold sweep's items: ``python -m repro difftest --seeds 5``
FUZZ_SEEDS = tuple(range(5))
#: the Table 2-4 items: blts is a large routine, where Chaitin-Briggs
#: and the interference build dominate; the others are medium and small
PAPER_ROUTINES = ("blts", "saturr", "ddeflu", "fmin")
APP_ROUTINES = 250
ORACLE_ROUTINES = 100
#: warm-up items, from outside the measured sets and the same for every
#: seed, so that set-up does the same work in every run
WARMUP_FUZZ_SEED = 100_000
WARMUP_ROUTINE = "zeroin"
WARMUP_APP = AppProfile(n_routines=40, seed=100_000)
#: small suite routines of similar cost, for the warm table2 request
TABLE2_POOL = ("fmin", "zeroin", "rkf45", "spline", "urand", "decomp")
#: the compiled-code quality probe: a fixed set, independent of the
#: seed, so the three quality metrics repeat exactly
PROBE_ROUTINES = ("fmin", "ddeflu")
PROBE_FUZZ_SEEDS = (0, 1, 2, 3)


def _cache(workdir: str, label: str) -> ArtifactCache:
    return ArtifactCache(os.path.join(workdir, label))


def _run_item(tracer: Optional[Tracer], item: str,
              fn: Callable[[], Tuple[bool, dict]],
              label: Optional[str] = None) -> dict:
    """Time one item.  ``fn`` returns (ok, extra row fields); an
    exception counts as a failed item.  An extra ``wall_s`` overrides
    the measured time (a request is timed from spawn to exit).
    ``label`` names the item's span when it differs from ``item``, the
    key that is the same in every pass."""
    span = (tracer.item(label or item) if tracer is not None
            else contextlib.nullcontext())
    with span:
        start = time.perf_counter()
        try:
            ok, extra = fn()
        except Exception:
            traceback.print_exc()
            ok, extra = False, {}
        wall = time.perf_counter() - start
    return {"item": item, "wall_s": wall, "ok": ok, **extra}


class Workload:
    """Interface of one workload; see the concrete classes."""

    name = ""
    #: program functions that each run one item (see layers.install)
    item_markers: Tuple[Tuple[str, str], ...] = ()
    #: interpreter start-up inside the timed body (requests only)
    body_startup_s = 0.0
    #: Chrome trace events recorded by other processes (requests only)
    events: Tuple[dict, ...] = ()

    def setup(self) -> None:
        """Prepare inputs and run one untimed warm-up item."""

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> List[dict]:
        raise NotImplementedError

    def check(self) -> Tuple[int, List[str]]:
        """Untimed correctness checks beyond the per-item ones:
        (checks made, problems found)."""
        return 0, []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def startup_s(self, own: float) -> float:
        """Start-up time of one process serving the workload."""
        return own


class DifftestCold(Workload):
    """``run_fuzz`` over the 52-config small-geometry lattice, one item
    per fuzz seed, cold artifact cache.

    Home of ``ir.verify_program`` (52 calls per seed), ``Program.clone``
    from the stage cache and the CCM passes; frontend and opt do little,
    and the artifact cache only writes.
    """

    name = "difftest-cold"

    def __init__(self, seed: int, workdir: str, fuzz_seeds=FUZZ_SEEDS):
        self.workdir = workdir
        self.order = list(fuzz_seeds)
        random.Random(seed).shuffle(self.order)
        self.lattice = config_lattice()

    def _fuzz(self, fuzz_seed: int, cache: ArtifactCache
              ) -> Tuple[bool, dict]:
        report = run_fuzz([fuzz_seed], self.lattice, jobs=1,
                          artifacts=cache)
        return report.ok and report.seeds_skipped == 0, {}

    def setup(self) -> None:
        self._fuzz(WARMUP_FUZZ_SEED, _cache(self.workdir, "warmup"))

    def run_pass(self, index, tracer):
        cache = _cache(self.workdir, f"pass{index}")
        return [_run_item(tracer, f"seed={s}",
                          functools.partial(self._fuzz, s, cache))
                for s in self.order]


class SuitePaper(Workload):
    """An ``ExperimentRunner`` on PAPER_MACHINE_512 with
    ``verify_values=True``: the Table 2-4 runs, one item per
    (routine, variant) job.

    Large routines make Chaitin-Briggs and the interference build
    dominate; verify and clone are about 1% each.
    """

    name = "suite-paper"

    def __init__(self, seed: int, workdir: str, routines=PAPER_ROUTINES):
        self.workdir = workdir
        self.order = [(r, v) for r in routines for v in VARIANTS]
        random.Random(seed).shuffle(self.order)

    def setup(self) -> None:
        runner = ExperimentRunner(artifacts=_cache(self.workdir, "warmup"))
        runner.run(WARMUP_ROUTINE, "baseline", 512)

    def run_pass(self, index, tracer):
        runner = ExperimentRunner(verify_values=True, jobs=1,
                                  artifacts=_cache(self.workdir,
                                                   f"pass{index}"))

        def job(routine: str, variant: str) -> Tuple[bool, dict]:
            # the runner raises when the value differs from the
            # unoptimized reference run
            return True, {"cycles": runner.run(routine, variant,
                                               512).cycles}

        return [_run_item(tracer, f"{r}/{v}", functools.partial(job, r, v))
                for r, v in self.order]


def _row_problems(row: dict, ccm: int) -> List[str]:
    """CCM invariants of one whole-program stream row."""
    problems = []
    if len(row["placed"]) + row["n_heavyweight"] != row["n_webs"]:
        problems.append("promoted + heavyweight webs != webs")
    end = 0
    for _, offset, size in row["placed"]:
        if offset < 0 or offset + size > ccm:
            problems.append(f"web at {offset}+{size} outside the CCM")
        end = max(end, offset + size)
    own, reported = row["own_high_water"], row["reported_high_water"]
    if own != end:
        problems.append(f"own high-water {own} != placed end {end}")
    if row["recursive"] and reported != ccm:
        problems.append(f"cycle member reports {reported}, not {ccm}")
    if not own <= reported <= ccm:
        problems.append(f"reported high-water {reported} outside "
                        f"[{own}, {ccm}]")
    return problems


class WholeProgram(Workload):
    """``compile_whole_program`` with ``jobs=1`` on the 250-routine
    application of ``harness --whole-program --routines 250``; the item
    is the whole build, as the CLI reports it when it is done.  The
    untimed oracle check uses an application drawn from the seed.

    Frontend and opt carry about half the time; verify, clone and the
    simulator never run, so this workload predicts no change for
    ``ir`` and ``machine`` optimisations.
    """

    name = "wholeprog-250"
    item_markers = (("repro.exec.wholeprog", "_routine_job"),)

    def __init__(self, seed: int, workdir: str,
                 n_routines: int = APP_ROUTINES,
                 oracle_routines: int = ORACLE_ROUTINES):
        self.seed = seed
        self.workdir = workdir
        # applications drawn from different seeds differ by about 9% in
        # build cost, so the timed one is fixed
        self.profile = AppProfile(n_routines=n_routines)
        self.oracle_routines = oracle_routines

    def setup(self) -> None:
        compile_whole_program(repro.workloads.generate_application(WARMUP_APP),
                              PAPER_MACHINE_512, jobs=1,
                              artifacts=_cache(self.workdir, "warmup"))

    def run_pass(self, index, tracer):
        ccm = PAPER_MACHINE_512.ccm_bytes
        cache = _cache(self.workdir, f"pass{index}")

        def build() -> Tuple[bool, dict]:
            problems: List[str] = []

            def stream(name: str, row: dict) -> None:
                problems.extend(f"{self.name} {name}: {problem}"
                                for problem in _row_problems(row, ccm))

            app = repro.workloads.generate_application(self.profile)
            report = compile_whole_program(app, PAPER_MACHINE_512, jobs=1,
                                           artifacts=cache, stream=stream)
            for problem in problems:
                print(problem, file=sys.stderr)
            return (not problems and report.n_routines == len(app),
                    {"signature": report.signature})

        # each routine compile opens an item span nested in the build's
        return [_run_item(tracer, "build", build, label=f"build={index}")]

    def check(self):
        """Agreement with the monolithic serial walk, the independent
        oracle, on a small app from the same seed."""
        app = repro.workloads.generate_application(AppProfile(
            n_routines=self.oracle_routines, seed=self.seed))
        engine = compile_whole_program(app, PAPER_MACHINE_512, jobs=1,
                                       keep_routines=True)
        oracle = monolithic_report(app, PAPER_MACHINE_512)
        problems = [f"{name}: engine row differs from the monolithic walk"
                    for name in sorted(app.routines)
                    if engine.routines[name] != oracle.routines[name]]
        return len(app.routines), problems


class WarmRerun(Workload):
    """Sequential ``python -m repro`` requests, round-robin over three
    commands, against an artifact cache that set-up filled.

    Measures interpreter start-up plus artifact reads: the read side of
    what the cold workloads write, and the CLI baseline a compile
    daemon has to beat.
    """

    name = "warm-rerun"

    def __init__(self, seed: int, workdir: str, difftest_seeds: int = 2,
                 app_routines: int = 100, table2_routines: int = 2):
        rng = random.Random(seed)
        self.workdir = workdir
        self.cache = os.path.join(workdir, "cache")
        # (key, arguments, flag naming the machine-readable output); fuzz
        # seeds differ widely in cost, so the difftest command is fixed
        self.commands = [
            ("difftest", ["difftest", "--seeds", str(difftest_seeds),
                          "-j", "1"], "--json"),
            ("wholeprog", ["harness", "--whole-program", "--routines",
                           str(app_routines), "--seed",
                           str(rng.randrange(1 << 16)), "-j", "1"],
             "--report"),
            ("table2", ["harness", "table2", "--routines",
                        ",".join(rng.sample(TABLE2_POOL, table2_routines)),
                        "-j", "1"], None),
        ]
        rng.shuffle(self.commands)
        self.expected: Dict[str, object] = {}
        self.requests = 0
        self.rss_kb = 0
        self.events: List[dict] = []
        self.traced_requests = 0

    def _request(self, command, label: str,
                 tracer: Optional[Tracer]) -> dict:
        """Run one request; returns its status, time, usage, output."""
        key, args, out_flag = command
        self.requests += 1
        tag = os.path.join(self.workdir, f"request{self.requests}")
        argv = [*args, "--cache-dir", self.cache,
                "--stats", tag + ".stats.json"]
        if out_flag is not None:
            argv += [out_flag, tag + ".out.json"]
        if tracer is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, TRACED_REQUEST, tag + ".trace.json",
                   label, "--", *argv]
        with open(tag + ".stdout", "wb") as stdout, \
                open(tag + ".stderr", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(tag + ".stderr", errors="replace") as handle:
                sys.stderr.write(handle.read()[-2000:])
            return {"ok": False, "wall_s": wall}
        if out_flag is None:
            with open(tag + ".stdout") as handle:
                output = handle.read()
        else:
            with open(tag + ".out.json") as handle:
                output = json.load(handle)
            for volatile in ("elapsed_s", "wall_s", "routines_per_sec"):
                output.pop(volatile, None)
        with open(tag + ".stats.json") as handle:
            hit_rate = json.load(handle)["artifact_cache"]["hit_rate"]
        result = {"ok": True, "wall_s": wall, "rss_kb": usage.ru_maxrss,
                  "output": output, "hit_rate": hit_rate}
        if tracer is not None:
            with open(tag + ".trace.json") as handle:
                payload = json.load(handle)
            tracer.merge(payload)
            self.events += payload["events"]
            self.body_startup_s += wall - payload["main_s"]
            self.traced_requests += 1
        return result

    def setup(self) -> None:
        for command in self.commands:              # the cold fill
            result = self._request(command, "fill", None)
            if not result["ok"]:
                raise RuntimeError(f"cold {command[0]} request failed")
            self.expected[command[0]] = result["output"]
        self._request(self.commands[0], "warmup", None)

    def _warm(self, command, label: str, tracer: Optional[Tracer]
              ) -> Tuple[bool, dict]:
        result = self._request(command, label, tracer)
        if not result["ok"]:
            return False, {"wall_s": result["wall_s"]}
        self.rss_kb = max(self.rss_kb, result["rss_kb"])
        same = result["output"] == self.expected[command[0]]
        if result["hit_rate"] != 1.0 or not same:
            print(f"{label}: artifact hit rate {result['hit_rate']}, "
                  f"output {'equals' if same else 'differs from'} the "
                  f"cold run's", file=sys.stderr)
            return False, {"wall_s": result["wall_s"]}
        return True, {"wall_s": result["wall_s"]}

    def run_pass(self, index, tracer):
        rows = []
        for command in self.commands:
            label = f"request={self.requests + 1}:{command[0]}"
            rows.append(_run_item(tracer, command[0], functools.partial(
                self._warm, command, label, tracer), label))
        return rows

    def peak_rss_kb(self) -> int:
        return self.rss_kb

    def startup_s(self, own: float) -> float:
        if self.traced_requests:
            return self.body_startup_s / self.traced_requests
        return own


WORKLOADS = {cls.name: cls for cls in (DifftestCold, SuitePaper,
                                       WholeProgram, WarmRerun)}


def measure(workload: Workload, seconds: Optional[float] = None,
            passes: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> dict:
    """Run whole passes: exactly ``passes``, or until less than half a
    pass of the ``seconds`` budget is left.  Rows carry their pass."""
    installation = (install(tracer, items=workload.item_markers)
                    if tracer is not None else None)
    rows: List[dict] = []
    pass_walls: List[float] = []
    start = time.perf_counter()
    try:
        while True:
            begin = time.perf_counter()
            index = len(pass_walls)
            rows += [dict(row, **{"pass": index})
                     for row in workload.run_pass(index, tracer)]
            pass_walls.append(time.perf_counter() - begin)
            elapsed = time.perf_counter() - start
            if passes is not None:
                if len(pass_walls) >= passes:
                    break
            elif elapsed + 0.5 * elapsed / len(pass_walls) >= seconds:
                break
        wall = time.perf_counter() - start
    finally:
        if installation is not None:
            installation.uninstall()
    return {"rows": rows, "passes": len(pass_walls),
            "pass_walls": pass_walls, "wall_s": wall}


def probe_quality() -> Tuple[Dict[str, float], int, List[str]]:
    """Compile and simulate the fixed probe set under the four variants.

    Returns the quality metrics (geometric-mean simulated cycles, total
    frame bytes, total static instructions), the number of value checks
    made against the unoptimized reference run, and the problems found.
    """
    small = MachineConfig(ccm_bytes=512, **GEOMETRIES["small"])
    cases = [(f"suite {r}", routine_source(r), PAPER_MACHINE_512)
             for r in PROBE_ROUTINES]
    cases += [(f"fuzz {s}", generate_source(s), small)
              for s in PROBE_FUZZ_SEEDS]
    log_cycles, frame_bytes, code_size, problems = [], 0, 0, []
    for label, source, machine in cases:
        reference = Simulator(compile_source(source)).run().value
        for variant in VARIANTS:
            prog = compile_source(source)
            compile_program(prog, machine, variant)
            run = Simulator(prog, machine, poison_caller_saved=True).run()
            if not values_match(run.value, reference):
                problems.append(f"probe {label}/{variant}: {run.value!r} "
                                f"!= reference {reference!r}")
            log_cycles.append(math.log(run.stats.cycles))
            for fn in prog.functions.values():
                frame_bytes += fn.frame_size
                code_size += sum(len(b.instructions) for b in fn.blocks)
    metrics = {"sim_cycles_geomean": math.exp(sum(log_cycles)
                                              / len(log_cycles)),
               "frame_bytes": frame_bytes, "code_size": code_size}
    return metrics, len(log_cycles), problems


def run_workload(workload: Workload, spawn_t: float, *,
                 setup_only: bool = False, seconds: Optional[float] = None,
                 passes: Optional[int] = None, probe: bool = False,
                 trace: bool = False, trace_out: Optional[str] = None
                 ) -> dict:
    """Set up, measure and check one workload; returns the result.
    ``spawn_t`` is when the process serving the workload was started."""
    startup_s = time.perf_counter() - spawn_t
    os.makedirs(workload.workdir, exist_ok=True)
    workload.setup()
    result = {"workload": workload.name,
              "setup_s": time.perf_counter() - spawn_t}
    if setup_only:
        return result
    tracer = Tracer(keep_spans=trace_out is not None) if trace else None
    result.update(measure(workload, seconds, passes, tracer))
    result["peak_rss_mb"] = workload.peak_rss_kb() / 1024
    checks, problems = workload.check()
    if probe:
        result["quality"], probe_checks, probe_problems = probe_quality()
        checks += probe_checks
        problems += probe_problems
    failed_rows = sum(not row["ok"] for row in result["rows"])
    result["attempted"] = len(result["rows"]) + checks
    result["failed"] = failed_rows + len(problems)
    result["problems"] = problems
    result["startup_s"] = workload.startup_s(startup_s)
    if tracer is not None:
        result["layers"] = tracer.payload()
        result["body_startup_s"] = workload.body_startup_s
        if trace_out is not None:
            events = chrome_events(tracer.spans, os.getpid())
            write_chrome_trace(events + list(workload.events), trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seconds is None) == (args.passes is None):
        parser.error("give exactly one of --seconds and --passes")
    result = run_workload(
        WORKLOADS[args.workload](args.seed, args.workdir), args.spawn_t,
        setup_only=args.setup_only, seconds=args.seconds,
        passes=args.passes, probe=args.probe, trace=args.trace,
        trace_out=args.trace_out)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
