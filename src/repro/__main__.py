"""Command-line driver: compile and run MFL files.

Usage::

    python -m repro run kernel.mfl [--variant postpass_cg] [--ccm 512]
                                   [--args 1 2.5] [--stats]
    python -m repro emit kernel.mfl [--variant baseline] [--stage ...]
    python -m repro difftest [--seeds N] [-j N] [--profile nightly]
    python -m repro harness table2 [-j N] [--stats]
    python -m repro trace compare [--baseline benchmarks/baselines]
    python -m repro cache stats [--cache-dir DIR]

``emit`` prints the ILOC listing at a chosen stage: ``frontend`` (raw
lowering), ``opt`` (after scalar optimization), or ``asm`` (fully
allocated, the default).  ``difftest`` runs the differential-testing
fuzzer over the allocator config lattice (see :mod:`repro.difftest`);
``harness`` regenerates the paper's tables and figures (see
:mod:`repro.harness.cli`).  Both are sweep commands: they take
``--jobs N`` / ``-j N`` to fan out over worker processes, ``--stats``
for engine metrics, and share the on-disk artifact cache.  ``trace``
captures/compares per-routine compile-quality metric baselines (the
regression gate; see :mod:`repro.trace.cli`).  ``cache`` inspects and
maintains the shared on-disk artifact store (see
:mod:`repro.exec.cache_cli`).

Start-up is lazy: each subcommand imports only the modules it runs.  A
missing or malformed source file is one ``repro: error: ...`` line and
exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import VARIANTS
from .exec.argtypes import nonnegative_int


def _main_argument(text: str):
    """``--args``: an int, else a float."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "difftest":
        # the differential tester owns its own argument set
        from .difftest.cli import main as difftest_main
        return difftest_main(argv[1:])
    if argv and argv[0] == "harness":
        # so sweeps are reachable from the one entry point too
        from .harness.cli import main as harness_main
        return harness_main(argv[1:])
    if argv and argv[0] == "trace":
        # metric-baseline capture/compare (the regression gate)
        from .trace.cli import main as trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "cache":
        # artifact-store maintenance (stats / clear)
        from .exec.cache_cli import main as cache_main
        return cache_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro", description="MFL compiler with CCM spill allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="compile and simulate a program")
    run_cmd.add_argument("file")
    run_cmd.add_argument("--variant", choices=VARIANTS, default="baseline")
    run_cmd.add_argument("--ccm", type=nonnegative_int, default=512,
                         help="CCM size in bytes")
    run_cmd.add_argument("--args", type=_main_argument, nargs="*",
                         default=[], help="arguments for main()")
    run_cmd.add_argument("--stats", action="store_true",
                         help="print the full dynamic statistics")

    sub.add_parser("difftest",
                   help="differential-testing fuzzer over the allocator "
                        "config lattice (python -m repro difftest --help)")
    sub.add_parser("harness",
                   help="regenerate the paper's tables and figures "
                        "(python -m repro harness --help)")
    sub.add_parser("trace",
                   help="capture/compare compile-quality metric baselines "
                        "(python -m repro trace --help)")
    sub.add_parser("cache",
                   help="artifact-store stats/clear "
                        "(python -m repro cache --help)")

    emit_cmd = sub.add_parser("emit", help="print the ILOC listing")
    emit_cmd.add_argument("file")
    emit_cmd.add_argument("--variant", choices=VARIANTS, default="baseline")
    emit_cmd.add_argument("--ccm", type=nonnegative_int, default=512)
    emit_cmd.add_argument("--stage", choices=["frontend", "opt", "asm"],
                          default="asm")

    args = parser.parse_args(argv)

    from .frontend import (LexError, MflSyntaxError, MflTypeError,
                           compile_source)
    from .harness.experiment import compile_program
    from .ir import format_program, verify_program
    from .machine import MachineConfig, Simulator
    from .opt import optimize_program

    try:
        with open(args.file) as handle:
            program = compile_source(handle.read(), name=args.file)
    except (OSError, UnicodeDecodeError, LexError, MflSyntaxError,
            MflTypeError) as exc:
        detail = getattr(exc, "strerror", None) or exc
        print(f"repro: error: {args.file}: {detail}", file=sys.stderr)
        return 2
    machine = MachineConfig(ccm_bytes=args.ccm)

    if args.command == "emit":
        if args.stage == "opt":
            optimize_program(program)
        elif args.stage == "asm":
            compile_program(program, machine, args.variant)
        verify_program(program)
        print(format_program(program))
        return 0

    compile_program(program, machine, args.variant)
    result = Simulator(program, machine, poison_caller_saved=True).run(
        args=args.args)
    print(f"result: {result.value}")
    stats = result.stats
    print(f"cycles: {stats.cycles} ({stats.memory_cycles} in memory ops)")
    if args.stats:
        print(f"instructions: {stats.instructions}")
        print(f"loads/stores: {stats.loads}/{stats.stores}")
        print(f"stack spill loads/stores: "
              f"{stats.spill_loads}/{stats.spill_stores}")
        print(f"CCM loads/stores: {stats.ccm_loads}/{stats.ccm_stores}")
        print(f"calls: {stats.calls}")
        if stats.max_ccm_offset >= 0:
            print(f"CCM bytes touched: {stats.max_ccm_offset + 1}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
