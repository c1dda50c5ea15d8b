"""Structured per-pass tracing, metric baselines, and the regression gate.

The paper's evaluation is an exercise in counting precisely — spill
bytes (Table 1), dynamic cycles and memory-operation cycles (Table 2),
CCM occupancy (Table 3).  This package makes those counts visible *per
pipeline stage* instead of only at the end of a run:

* :mod:`repro.trace.recorder` — the span/counter core.  Every pipeline
  stage (frontend lowering, each scalar-opt pass, SSA build/destroy,
  Chaitin-Briggs coloring rounds, CCM assignment, compaction, each
  simulation) reports into the installed
  :class:`TraceRecorder`; when none is installed the hooks cost one
  global read.
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto) and a text summary, surfaced as
  ``--trace`` / ``--trace-out`` on the harness and difftest CLIs.
* :mod:`repro.trace.metrics` — flattens one routine's counters into a
  stable metric dict.
* :mod:`repro.trace.baseline` — pinned per-routine baselines under
  ``benchmarks/baselines/`` and the ``repro trace compare`` gate that
  fails CI when a metric drifts past tolerance.
"""

from .baseline import (Baseline, CompareReport, capture_baselines,
                       compare_baselines, compare_metrics, load_baselines)
from .export import format_summary, to_chrome_trace, write_chrome_trace
from .metrics import collect_routine_metrics
from .recorder import (TraceRecorder, current, install, instruction_count,
                       recording, trace_counter, trace_span, traced_pass)

__all__ = [
    "TraceRecorder", "current", "install", "recording",
    "trace_span", "trace_counter", "traced_pass", "instruction_count",
    "to_chrome_trace", "write_chrome_trace", "format_summary",
    "collect_routine_metrics",
    "Baseline", "CompareReport", "capture_baselines", "compare_baselines",
    "compare_metrics", "load_baselines",
]
