"""Shared parallel execution engine for sweeps.

Every evaluation surface of this repository — the paper-table harness,
the section-4.3 ablations, and the differential-testing lattice — boils
down to the same shape of work: a large batch of independent
compile+simulate jobs whose results must be reported in a fixed,
deterministic order.  This package provides the three layers they all
share:

* :mod:`repro.exec.pool` — fan jobs out over a ``ProcessPoolExecutor``
  (``--jobs N`` / ``-j``), with a deterministic in-process serial path
  at ``-j 1``.  Results always come back in submission order, so the
  parallel path is bit-identical to the serial one.
* :mod:`repro.exec.artifacts` — a content-addressed on-disk cache keyed
  by (source text, pipeline config, code version).  It sits *under* the
  existing in-memory memoization and makes repeat sweeps across CLI
  invocations near-free.
* :mod:`repro.exec.stats` — per-stage wall/CPU timing and cache
  hit-rate accounting, surfaced as ``--stats`` JSON so perf regressions
  in the compiler itself stay visible.
* :mod:`repro.exec.wholeprog` — the SCC-partitioned whole-program
  compilation driver: condense the call graph, schedule SCC waves onto
  a persistent :class:`~repro.exec.pool.JobPool` callee-before-caller,
  coalesce content-identical routine compiles, stream the results.
  It is not re-exported here: import the submodule, so that code
  which never builds a whole program never loads it.

:mod:`repro.exec.compare` holds the single value-comparison helper the
harness verifier and the difftest oracle both use (they used to carry
two copies with different float tolerances — a program could pass one
and fail the other).
"""

from .artifacts import ArtifactCache, code_version, default_cache_dir
from .compare import FLOAT_RTOL, values_match
from .pool import JobPool, default_jobs, run_jobs
from .stats import StageClock, SweepStats

__all__ = [
    "ArtifactCache", "code_version", "default_cache_dir",
    "FLOAT_RTOL", "values_match",
    "JobPool", "default_jobs", "run_jobs",
    "StageClock", "SweepStats",
]
