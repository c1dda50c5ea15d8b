"""Register-allocator engine selection.

The two allocator backends are an experimental axis (they compile to
different code), not a fast path and its oracle.  One process-wide
engine name: ``$REPRO_REGALLOC_ENGINE`` unless code or a CLI selects
one explicitly, folded into the artifact-cache code version so results
compiled under different allocators never alias.

Engines:

* ``chaitin`` (default) — the Chaitin-Briggs coloring allocator
  (:mod:`repro.regalloc.chaitin_briggs`), the paper's baseline.
* ``ssa`` — the SSA-based allocator (:mod:`repro.regalloc.ssa`) with
  load/store-range-splitting spill code (one reload per using block).
* ``ssa-everywhere`` — the same allocator with spill-everywhere spill
  code (a fresh reload before every use).
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

#: every engine name, in the order the CLIs list them
ENGINES = ("chaitin", "ssa", "ssa-everywhere")

_ENV = "REPRO_REGALLOC_ENGINE"

#: the explicit selection; None follows the environment
_engine: Optional[str] = None


def regalloc_engine() -> str:
    """The active register-allocator engine name.

    Without an explicit :func:`set_regalloc_engine` this is
    ``$REPRO_REGALLOC_ENGINE`` (default ``chaitin``), read on every
    call; an unknown value raises ``ValueError`` naming the variable
    and the valid engines.
    """
    return _engine if _engine is not None else _env_engine()


def _env_engine() -> str:
    name = os.environ.get(_ENV) or "chaitin"
    if name not in ENGINES:
        raise ValueError(f"${_ENV}: unknown regalloc engine {name!r} "
                         f"(choose from {', '.join(ENGINES)})")
    return name


def set_regalloc_engine(name: str) -> None:
    """Select the register allocator for subsequent allocations."""
    global _engine
    if name not in ENGINES:
        raise ValueError(f"unknown regalloc engine {name!r}; "
                         f"expected one of {ENGINES}")
    _engine = name


def apply_regalloc_engine(parser: argparse.ArgumentParser,
                          name: Optional[str]) -> None:
    """Apply a CLI's ``--regalloc-engine`` value (None: not given).

    The choice is exported to ``$REPRO_REGALLOC_ENGINE`` as well, so
    spawned sweep workers follow it.  Without one, a malformed variable
    is a usage error (exit status 2) that names it.
    """
    if name is not None:
        os.environ[_ENV] = name
        set_regalloc_engine(name)
    try:
        _env_engine()
    except ValueError as exc:
        parser.error(str(exc))


def spill_mode_for(engine: str) -> str:
    """The SSA spill-code variant an engine name selects."""
    return "everywhere" if engine == "ssa-everywhere" else "split"
