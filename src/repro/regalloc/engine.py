"""Register-allocator engine selection.

The two allocator backends are an experimental axis (they compile to
different code), not a fast path and its oracle.  One process-wide
engine name, read once from the environment at import, overridable from
code or the CLIs, and folded into the artifact-cache code version so
results compiled under different allocators never alias.

Engines:

* ``chaitin`` (default) — the Chaitin-Briggs coloring allocator
  (:mod:`repro.regalloc.chaitin_briggs`), the paper's baseline.
* ``ssa`` — the SSA-based allocator (:mod:`repro.regalloc.ssa`) with
  load/store-range-splitting spill code (one reload per using block).
* ``ssa-everywhere`` — the same allocator with spill-everywhere spill
  code (a fresh reload before every use).
"""

from __future__ import annotations

import os

_VALID_REGALLOC_ENGINES = ("chaitin", "ssa", "ssa-everywhere")

_engine = os.environ.get("REPRO_REGALLOC_ENGINE", "chaitin")
if _engine not in _VALID_REGALLOC_ENGINES:
    _engine = "chaitin"


def regalloc_engine() -> str:
    """The active register-allocator engine name."""
    return _engine


def set_regalloc_engine(name: str) -> None:
    """Select the register allocator for subsequent allocations."""
    global _engine
    if name not in _VALID_REGALLOC_ENGINES:
        raise ValueError(f"unknown regalloc engine {name!r}; "
                         f"expected one of {_VALID_REGALLOC_ENGINES}")
    _engine = name


def spill_mode_for(engine: str) -> str:
    """The SSA spill-code variant an engine name selects."""
    return "everywhere" if engine == "ssa-everywhere" else "split"
