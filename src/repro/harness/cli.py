"""Command-line entry: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1
    python -m repro.harness table2 [--ccm 512] [--routines a,b,c]
    python -m repro.harness table3
    python -m repro.harness table4
    python -m repro.harness fig3
    python -m repro.harness fig4
    python -m repro.harness ablation
    python -m repro.harness all
    python -m repro.harness difftest [--seeds N] [--budget S] ...
    python -m repro.harness --whole-program [--routines N] [-j N] ...

Every sweep target accepts ``--jobs N`` / ``-j N`` (default: all
cores) to fan compile+simulate jobs out over worker processes, and
``--stats`` to dump engine metrics (jobs, artifact-cache hit rate,
per-stage wall/CPU time) as JSON.  Finished results persist in the
on-disk artifact cache (``--cache-dir``, ``--no-cache``,
``--clear-cache``), so a warm re-run is near-free.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..exec import default_jobs
from ..exec.argtypes import nonnegative_int
from ..exec.cache_cli import add_cache_arguments, cache_from_args
from ..regalloc.engine import ENGINES, apply_regalloc_engine
from ..trace import TraceRecorder, format_summary, write_chrome_trace
from ..workloads.suite import suite_names
from .ablation import run_ablation
from .experiment import ExperimentRunner
from .tables import (figure, program_runner, table1, table2, table3, table4)


def _routine_list(arg: str) -> Optional[List[str]]:
    """``--routines``: a comma-separated subset of the 59 suite routines."""
    names = [name.strip() for name in arg.split(",") if name.strip()]
    unknown = [name for name in names if name not in suite_names()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown suite routine(s): {', '.join(unknown)}")
    return names or None


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "difftest":
        from ..difftest.cli import main as difftest_main
        return difftest_main(argv[1:])
    if "--whole-program" in argv:
        from ..exec.wholeprog import cli_main as wholeprog_main
        return wholeprog_main([a for a in argv if a != "--whole-program"])

    parser = argparse.ArgumentParser(
        prog="ccm-harness",
        description="Regenerate the tables and figures of "
                    "'Compiler-Controlled Memory' (ASPLOS 1998)")
    parser.add_argument("target",
                        choices=["table1", "table2", "table3", "table4",
                                 "fig3", "fig4", "ablation", "experiments",
                                 "all", "difftest"])
    parser.add_argument("--ccm", type=nonnegative_int, default=512,
                        help="CCM size in bytes for table2 (default 512)")
    parser.add_argument("--routines", type=_routine_list, default=None,
                        help="comma-separated routine subset")
    parser.add_argument("--regalloc-engine",
                        choices=ENGINES, default=None,
                        help="register-allocator backend: 'chaitin' "
                             "(Chaitin-Briggs; default), 'ssa' (SSA-form "
                             "spilling with load/store range splitting) "
                             "or 'ssa-everywhere' (SSA spill-everywhere). "
                             "Exported to worker processes via "
                             "REPRO_REGALLOC_ENGINE.")
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all cores; "
                             "-j 1 is the deterministic serial path)")
    parser.add_argument("--stats", metavar="PATH", nargs="?", const="-",
                        default=None,
                        help="write sweep statistics JSON to PATH, or "
                             "stderr when PATH is omitted")
    add_cache_arguments(parser)
    parser.add_argument("--trace", action="store_true",
                        help="record per-pass pipeline spans/counters and "
                             "print a summary to stderr")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the trace as Chrome trace_event JSON "
                             "(implies --trace)")
    args = parser.parse_args(argv)
    apply_regalloc_engine(parser, args.regalloc_engine)

    workloads = args.routines
    jobs = args.jobs if args.jobs is not None else default_jobs()
    artifacts = cache_from_args(args)
    trace = args.trace or args.trace_out is not None
    recorder = TraceRecorder() if trace else None
    runner = ExperimentRunner(jobs=jobs, artifacts=artifacts,
                              trace=trace, recorder=recorder)
    start = time.time()

    if args.target == "experiments":
        from .report import main as report_main
        return report_main(jobs=jobs, artifacts=artifacts)

    targets = ([args.target] if args.target != "all" else
               ["table1", "table2", "table3", "table4", "fig3", "fig4",
                "ablation"])
    for target in targets:
        if target == "table1":
            print(table1(workloads, jobs=jobs).format())
        elif target == "table2":
            print(table2(runner, args.ccm, workloads).format())
        elif target == "table3":
            print(table3(runner, workloads).format())
        elif target == "table4":
            print(table4(runner, workloads).format())
        elif target == "fig3":
            fig = figure(program_runner(jobs=jobs, artifacts=artifacts,
                                        trace=trace, recorder=recorder), 512)
            print(fig.format())
            print()
            print(fig.render_bars())
        elif target == "fig4":
            fig = figure(program_runner(jobs=jobs, artifacts=artifacts,
                                        trace=trace, recorder=recorder),
                         1024)
            print(fig.format())
            print()
            print(fig.render_bars())
        elif target == "ablation":
            print(run_ablation(workloads, jobs=jobs, artifacts=artifacts,
                               stats=runner.stats).format())
        print()

    runner.stats.wall_s += time.time() - start
    if args.stats == "-":
        print(runner.stats.format_json(), file=sys.stderr)
    elif args.stats:
        with open(args.stats, "w") as handle:
            handle.write(runner.stats.format_json() + "\n")
    if recorder is not None:
        print(format_summary(recorder), file=sys.stderr)
        if args.trace_out:
            write_chrome_trace(recorder, args.trace_out)
            print(f"trace written to {args.trace_out}", file=sys.stderr)
    print(f"[{time.time() - start:.0f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
