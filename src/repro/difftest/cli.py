"""``python -m repro difftest`` — drive the differential tester.

Examples::

    python -m repro difftest --seeds 25                # quick sweep
    python -m repro difftest --profile nightly         # long fuzz run
    python -m repro difftest --seed 1234               # one seed, verbose
    python -m repro difftest --seeds 500 --budget 120  # stop after 120 s
    python -m repro difftest --seeds 50 --json report.json

Any divergence is reported with its seed and configuration name; with
``--reduce`` the offending program is delta-debugged to a minimal
reproducer, and with ``--save-corpus`` the reproducer is written to
``tests/corpus/`` so it replays forever as a regression test.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..exec import SweepStats, default_jobs
from ..exec.argtypes import nonnegative_int, positive_int
from ..exec.cache_cli import add_cache_arguments, cache_from_args
from ..regalloc.engine import ENGINES, apply_regalloc_engine
from ..trace import TraceRecorder, format_summary, write_chrome_trace
from .corpus import save_corpus_entry
from .gen import generate_source
from .reduce import reduce_source
from .runner import (DEFAULT_CCM_SIZES, SeedResult, check_source,
                     config_lattice, run_fuzz)

PROFILES = {
    # name: (n_seeds, start, budget_s)
    "smoke": (25, 0, None),
    "default": (100, 0, None),
    "nightly": (2000, 0, 1800.0),
}


def _parse_ccm_sizes(text: str) -> List[int]:
    sizes = [nonnegative_int(part) for part in text.split(",")
             if part.strip() != ""]
    if not sizes:
        raise argparse.ArgumentTypeError("need at least one CCM size")
    return sizes


def _parse_allocators(text: str) -> List[Optional[str]]:
    names: List[Optional[str]] = []
    for part in text.split(","):
        part = part.strip()
        if part == "":
            continue
        base = part[:-len("-noremat")] if part.endswith("-noremat") else part
        if base == "default":
            # follow REPRO_REGALLOC_ENGINE (optionally without remat)
            names.append(None if base == part else "-noremat")
        elif base in ENGINES:
            names.append(part)
        else:
            raise argparse.ArgumentTypeError(
                f"unknown allocator {part!r} (choose from "
                f"{', '.join(ENGINES)} or 'default', each optionally "
                f"suffixed '-noremat' to disable rematerialization)")
    if not names:
        raise argparse.ArgumentTypeError("need at least one allocator")
    return names


def build_parser(parser: Optional[argparse.ArgumentParser] = None
                 ) -> argparse.ArgumentParser:
    parser = parser or argparse.ArgumentParser(
        prog="repro difftest",
        description="Differential testing of the whole compilation pipeline")
    parser.add_argument("--seeds", type=positive_int, default=None,
                        help="number of seeds to fuzz (default: profile)")
    parser.add_argument("--start", type=int, default=None,
                        help="first seed (default: profile)")
    parser.add_argument("--seed", type=int, default=None,
                        help="check exactly one seed, verbosely")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="default",
                        help="seed-count/budget preset (default: default)")
    parser.add_argument("--ccm", type=_parse_ccm_sizes,
                        default=list(DEFAULT_CCM_SIZES), metavar="BYTES,...",
                        help="comma-separated CCM sizes for the lattice "
                             f"(default: {','.join(map(str, DEFAULT_CCM_SIZES))})")
    parser.add_argument("--machine", choices=("small", "paper"),
                        default="small",
                        help="register-file geometry: 'small' (8+8 regs, "
                             "heavy spilling; default) or 'paper' (64 regs)")
    parser.add_argument("--allocators", type=_parse_allocators,
                        default=[None], metavar="NAME,...",
                        help="register-allocator axis of the lattice: "
                             "comma-separated subset of chaitin, ssa, "
                             "ssa-everywhere, or 'default' (follow "
                             "REPRO_REGALLOC_ENGINE; the default). "
                             "'chaitin,ssa' doubles the lattice to "
                             "cross-check the two backends.")
    parser.add_argument("--regalloc-engine",
                        choices=ENGINES, default=None,
                        help="process-wide register-allocator backend "
                             "(what 'default' in --allocators resolves "
                             "to). Exported to worker processes via "
                             "REPRO_REGALLOC_ENGINE.")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report here ('-' for stdout)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        metavar="N",
                        help="worker processes (default: all cores; "
                             "-j 1 is the deterministic serial path)")
    parser.add_argument("--stats", metavar="PATH", nargs="?", const="-",
                        default=None,
                        help="write sweep statistics JSON (jobs, artifact-"
                             "cache hit rate, per-stage wall/CPU time) to "
                             "PATH, or stderr when PATH is omitted")
    add_cache_arguments(parser)
    parser.add_argument("--trace", action="store_true",
                        help="record per-pass pipeline spans/counters and "
                             "print a summary to stderr")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the trace as Chrome trace_event JSON "
                             "(implies --trace)")
    parser.add_argument("--reduce", action="store_true",
                        help="minimize each divergent program")
    parser.add_argument("--save-corpus", action="store_true",
                        help="write minimized reproducers to tests/corpus/")
    parser.add_argument("--emit-source", action="store_true",
                        help="with --seed: print the generated program")
    return parser


def _reduce_divergence(seed: int, config_names: List[str],
                       configs) -> Optional[str]:
    """Shrink the seed's program so it still diverges somewhere."""
    def still_diverges(source: str) -> bool:
        result = check_source(source, configs)
        return bool(result.divergences)

    source = generate_source(seed)
    if not still_diverges(source):
        return None
    return reduce_source(source, still_diverges)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    apply_regalloc_engine(parser, args.regalloc_engine)
    configs = config_lattice(tuple(args.ccm), geometry=args.machine,
                             allocators=tuple(args.allocators))

    artifacts = cache_from_args(parser, args)

    if args.seed is not None:
        source = generate_source(args.seed)
        if args.emit_source:
            print(source)
        result = check_source(source, configs, seed=args.seed,
                              artifacts=artifacts)
        return _report_single(args, result, configs)

    n_seeds, start, budget = PROFILES[args.profile]
    if args.seeds is not None:
        n_seeds = args.seeds
    if args.start is not None:
        start = args.start
    if args.budget is not None:
        budget = args.budget

    def progress(seed: int, result: SeedResult) -> None:
        if result.divergences:
            for d in result.divergences:
                print(f"DIVERGENCE seed={seed} config={d.config} "
                      f"[{d.kind}] {d.detail}", file=sys.stderr)
        elif result.skipped:
            print(f"skip seed={seed}: {result.skipped}", file=sys.stderr)

    jobs = args.jobs if args.jobs is not None else default_jobs()
    stats = SweepStats()
    trace = args.trace or args.trace_out is not None
    recorder = TraceRecorder() if trace else None
    report = run_fuzz(range(start, start + n_seeds), configs,
                      budget_s=budget, progress=progress,
                      jobs=jobs, artifacts=artifacts, stats=stats,
                      trace=trace, recorder=recorder)
    if args.stats == "-":
        print(stats.format_json(), file=sys.stderr)
    elif args.stats:
        with open(args.stats, "w") as handle:
            handle.write(stats.format_json() + "\n")
    if recorder is not None:
        print(format_summary(recorder), file=sys.stderr)
        if args.trace_out:
            write_chrome_trace(recorder, args.trace_out)
            print(f"trace written to {args.trace_out}", file=sys.stderr)

    reduced: dict = {}
    if (args.reduce or args.save_corpus) and report.divergences:
        for seed in sorted({d.seed for d in report.divergences
                            if d.seed is not None}):
            minimized = _reduce_divergence(
                seed, [d.config for d in report.divergences
                       if d.seed == seed], configs)
            if minimized is None:
                continue
            reduced[seed] = minimized
            print(f"--- minimized reproducer for seed {seed} ---")
            print(minimized)
            if args.save_corpus:
                detail = next(d.detail for d in report.divergences
                              if d.seed == seed)
                path = save_corpus_entry(
                    f"seed_{seed}", minimized,
                    {"seed": str(seed), "found": detail[:200]})
                print(f"saved {path}")

    payload = report.format_json()
    if args.json == "-":
        print(payload)
    elif args.json:
        with open(args.json, "w") as handle:
            handle.write(payload + "\n")

    status = "FAIL" if report.divergences else "ok"
    # keep stdout machine-readable when the JSON report goes there
    out = sys.stderr if args.json == "-" else sys.stdout
    print(f"difftest {status}: {report.seeds_run} seeds x "
          f"{len(configs)} configs, {len(report.divergences)} divergences, "
          f"{report.seeds_skipped} skipped [{report.elapsed_s:.1f}s]",
          file=out)
    return 1 if report.divergences else 0


def _report_single(args, result: SeedResult, configs) -> int:
    if result.skipped:
        print(f"seed {result.seed} skipped: {result.skipped}")
        return 2
    if not result.divergences:
        print(f"seed {result.seed}: {result.n_configs} configs agree")
        return 0
    for d in result.divergences:
        print(f"DIVERGENCE config={d.config} [{d.kind}] {d.detail}")
    if args.reduce:
        minimized = _reduce_divergence(result.seed,
                                       [d.config for d in result.divergences],
                                       configs)
        if minimized:
            print("--- minimized reproducer ---")
            print(minimized)
            if args.save_corpus:
                path = save_corpus_entry(
                    f"seed_{result.seed}", minimized,
                    {"seed": str(result.seed),
                     "found": result.divergences[0].detail[:200]})
                print(f"saved {path}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
