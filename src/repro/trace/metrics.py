"""Per-routine compile-quality metrics, extracted from a traced run.

:func:`collect_routine_metrics` compiles one suite routine under one
variant with a fresh :class:`TraceRecorder` installed, simulates it,
and flattens the interesting counters into a stable ``name -> number``
dict.  These are the numbers the paper's evaluation is built on —
spill bytes (Table 1), dynamic cycles and memory cycles (Table 2),
CCM occupancy (Table 3) — plus the per-pass structural counts that
explain *where* they came from.  The baseline gate
(:mod:`repro.trace.baseline`) pins them per routine and fails the
build when they drift.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .recorder import TraceRecorder, recording

#: counter prefixes that become baseline metrics (everything the
#: pipeline records under these names is deterministic per routine)
METRIC_PREFIXES = (
    "frontend.", "opt.", "ssa.", "regalloc.", "ccm.", "sim.",
)

#: counter prefixes that depend on *how* a run executed, not on the
#: compiled code: the batch grouping/fan-out counters (and the decode
#: counters) vary with batch composition, so pinning them would make
#: the baseline gate fail on execution changes that leave compile
#: quality untouched
ENGINE_PREFIXES = ("sim.batch.", "sim.decode.")

#: span names are timing, not compile quality — never baselined
_EXCLUDED = ("wall", "time")


def _flatten_counters(counters: Dict[str, float]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name, value in counters.items():
        if not name.startswith(METRIC_PREFIXES) \
                or name.startswith(ENGINE_PREFIXES):
            continue
        metrics[name] = int(value) if float(value).is_integer() else value
    return metrics


def collect_routine_metrics(routine: str, variant: str = "postpass_cg",
                            ccm_bytes: int = 512,
                            build: Optional[Callable] = None
                            ) -> Dict[str, float]:
    """Compile + simulate one routine under tracing; return its metrics.

    Runs serially in-process with no artifact cache, so the numbers are
    exactly the compiler's own — deterministic for a given source tree
    (the cross-process determinism tests pin that property).
    """
    # imported here: repro.harness imports repro.trace for --trace
    from ..harness.experiment import compile_program
    from ..machine import Simulator
    from ..workloads.suite import build_routine

    build = build or build_routine
    prog = build(routine)
    recorder = TraceRecorder()
    machine = _machine_for(ccm_bytes)
    with recording(recorder):
        compile_program(prog, machine, variant)
        run = Simulator(prog, machine, poison_caller_saved=True).run()
    metrics = _flatten_counters(recorder.counters)
    # frame / CCM footprint straight off the compiled program: the
    # "Before/After" bytes of Table 1 and the occupancy of Table 3
    metrics["frame.spill_bytes"] = sum(
        fn.frame_size for fn in prog.functions.values())
    metrics["frame.ccm_high_water"] = max(
        (fn.ccm_high_water for fn in prog.functions.values()), default=0)
    # headline dynamic numbers (Table 2's two columns per entry)
    stats = run.stats
    metrics.setdefault("sim.cycles", stats.cycles)
    metrics.setdefault("sim.memory_cycles", stats.memory_cycles)
    return metrics


def _machine_for(ccm_bytes: int):
    from ..machine import (MachineConfig, PAPER_MACHINE_512,
                           PAPER_MACHINE_1024)

    if ccm_bytes == 512:
        return PAPER_MACHINE_512
    if ccm_bytes == 1024:
        return PAPER_MACHINE_1024
    return MachineConfig(ccm_bytes=ccm_bytes)
