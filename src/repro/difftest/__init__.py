"""Differential testing and fuzzing for the whole compilation pipeline.

The paper's evaluation only means something if every allocator
configuration compiles programs that *compute the same answers*; this
package turns the simulator into an execution oracle for that claim:

* :mod:`repro.difftest.gen` — seeded generator of adversarial MFL
  programs (deep call chains, recursion, values live across calls,
  tangled control flow) that the calibrated workload kernels never
  produce.
* :mod:`repro.difftest.runner` — compiles each seed under a config
  lattice (opt on/off x allocator variant x compaction x CCM size) and
  checks every execution against the unoptimized no-CCM reference.
* :mod:`repro.difftest.reduce` — delta-debugging reducer that shrinks a
  divergent program to a minimal MFL reproducer.
* :mod:`repro.difftest.corpus` — persistent corpus under
  ``tests/corpus/*.mfl``, replayed as regression tests.
* :mod:`repro.difftest.faults` — deliberate miscompilation passes used
  to validate that the oracle and reducer actually catch bugs.
* :mod:`repro.difftest.cli` — ``python -m repro difftest`` entry point.
"""

from __future__ import annotations

from .corpus import corpus_dir, iter_corpus, save_corpus_entry
from .gen import FuzzProfile, generate_source, profile_for_seed
from .reduce import reduce_source
from .runner import (DEFAULT_CCM_SIZES, Divergence, DiffConfig, FuzzReport,
                     SeedResult, check_source, config_lattice, run_fuzz)

__all__ = [
    "DEFAULT_CCM_SIZES", "DiffConfig", "Divergence", "FuzzProfile",
    "FuzzReport", "SeedResult", "check_source", "config_lattice",
    "corpus_dir", "generate_source",
    "iter_corpus", "profile_for_seed", "reduce_source", "run_fuzz",
    "save_corpus_entry",
]
