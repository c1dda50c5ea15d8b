"""The 59-routine workload suite.

Routine names follow the paper's Tables 1-3 (drawn from Forsythe/
Malcolm/Moler, SPEC '89, and SPEC '95); each name maps to a synthetic
pressure profile (see :mod:`repro.workloads.generator` and DESIGN.md for
the substitution argument).  Profiles are scaled down ~8x from the
paper's spill sizes so the whole suite simulates in minutes under
CPython, preserving the *relative* structure: which routines are big,
which compact well, which carry values across calls.

The 'X' suffix marks routines the paper loop-transformed for prefetch
analysis ("greatly increasing the register pressure"); here they carry
``unroll >= 2``.
"""

from __future__ import annotations

from typing import Dict, List

# called through the package, so a later rebinding of compile_source
# (the layer wrappers of benchmarks/e2e/layers.py) reaches the calls
from .. import frontend
from ..ir import Program
from .generator import RoutineProfile, generate_routine_source

# name: (held, stages, width, int_width, depth, iters, calls, unroll)
_P: Dict[str, tuple] = {
    # -- the large routines (paper: 12KB .. 1.5KB of spill) ------------------
    "twldrv":   (40, 4, 92, 8, 2, 36, "none", 1),
    "fpppp":    (14, 4, 90, 4, 1, 50, "none", 1),
    "deseco":   (28, 3, 72, 6, 1, 40, "chain", 1),
    "erhs":     (28, 3, 88, 6, 2, 20, "none", 1),
    "fkldX":    (10, 4, 52, 6, 1, 40, "none", 2),
    "jacld":    (32, 2, 88, 6, 2, 20, "none", 1),
    "rhs":      (28, 3, 84, 6, 2, 20, "none", 1),
    "parmvrX":  (10, 3, 34, 4, 1, 60, "none", 2),
    "jacu":     (30, 2, 84, 6, 2, 20, "none", 1),
    "radbgX":   (6, 4, 34, 4, 1, 50, "none", 2),
    "radfgX":   (5, 4, 34, 4, 1, 50, "none", 2),
    "supp":     (28, 3, 84, 4, 1, 40, "none", 1),
    "radb5X":   (6, 3, 34, 4, 1, 50, "none", 2),
    "radf5X":   (6, 3, 34, 4, 1, 50, "none", 2),
    "radf4X":   (5, 3, 33, 4, 1, 50, "none", 2),
    "radb4X":   (5, 3, 33, 4, 1, 50, "none", 2),
    "subb":     (8, 3, 32, 4, 1, 90, "none", 1),
    "parmovX":  (8, 2, 34, 4, 1, 50, "none", 2),
    # -- medium routines ------------------------------------------------------
    "saturr":   (6, 3, 32, 4, 1, 30, "none", 1),
    "radb3X":   (5, 3, 32, 4, 1, 40, "none", 2),
    "radf3X":   (5, 3, 32, 4, 1, 40, "none", 2),
    "smoothX":  (5, 2, 33, 4, 1, 40, "none", 2),
    "advbndX":  (8, 2, 32, 4, 1, 40, "none", 2),
    "radb2X":   (4, 3, 31, 4, 1, 40, "none", 2),
    "ddeflu":   (10, 2, 32, 4, 1, 40, "leaf", 1),
    "radf2X":   (4, 3, 31, 4, 1, 40, "none", 2),
    "vslvlpX":  (6, 2, 32, 4, 1, 40, "none", 2),
    "vslvlxX":  (5, 2, 31, 4, 1, 40, "none", 2),
    "efill":    (10, 1, 33, 4, 1, 40, "none", 1),
    "colbur":   (8, 1, 33, 4, 1, 40, "leaf", 1),
    "svd":      (6, 2, 31, 4, 2, 20, "none", 1),
    "tomcatv":  (9, 1, 32, 4, 2, 25, "none", 1),
    "dyeh":     (5, 2, 31, 4, 1, 30, "none", 1),
    "getbX":    (4, 2, 30, 4, 1, 30, "none", 2),
    "putbX":    (4, 2, 30, 4, 1, 30, "none", 2),
    "parmveX":  (4, 2, 30, 4, 1, 30, "none", 2),
    "cosqflX":  (6, 1, 31, 4, 1, 30, "none", 2),
    # -- routines with no compaction win, > 1KB in the paper ------------------
    "paroi":    (62, 1, 20, 6, 1, 40, "none", 1),
    "inisla":   (36, 1, 20, 4, 1, 30, "none", 1),
    "energyX":  (38, 1, 16, 4, 1, 40, "none", 2),
    "pdiagX":   (36, 1, 16, 6, 1, 40, "none", 2),
    # -- Table 2/3-only routines ----------------------------------------------
    "decomp":   (6, 2, 31, 4, 1, 6, "none", 1),
    "debflu":   (8, 2, 32, 4, 1, 40, "leaf", 1),
    "bilan":    (8, 2, 32, 4, 1, 35, "leaf", 1),
    "pastern":  (6, 2, 31, 4, 1, 30, "leaf", 1),
    "srkiv":    (8, 2, 32, 4, 1, 35, "none", 1),
    "blts":     (24, 2, 88, 6, 2, 20, "none", 1),
    "buts":     (24, 2, 88, 6, 2, 20, "none", 1),
    "denptX":   (6, 2, 32, 4, 1, 40, "none", 2),
    "rfftilX":  (4, 2, 30, 4, 1, 8, "none", 2),
    "slv2xyX":  (6, 2, 32, 4, 1, 30, "none", 2),
    "fieldX":   (8, 2, 34, 4, 1, 50, "none", 2),
    "initX":    (6, 2, 32, 4, 1, 50, "none", 2),
    "prophy":   (8, 2, 32, 4, 1, 40, "chain", 1),
    # -- FMM (Forsythe/Malcolm/Moler) extras -----------------------------------
    "fmin":     (5, 2, 30, 4, 1, 25, "none", 1),
    "zeroin":   (5, 2, 30, 4, 1, 25, "none", 1),
    "rkf45":    (8, 2, 32, 4, 1, 30, "leaf", 1),
    "spline":   (6, 2, 31, 4, 1, 30, "none", 1),
    "urand":    (4, 2, 30, 6, 1, 30, "none", 1),
}

_FIELDS = ("held", "stages", "width", "int_width", "depth", "iters",
           "calls", "unroll")


def suite_names() -> List[str]:
    """All 59 routine names, in the paper's (size-sorted) order."""
    return list(_P)


def routine_profile(name: str) -> RoutineProfile:
    if name not in _P:
        raise KeyError(f"unknown suite routine {name!r}")
    values = dict(zip(_FIELDS, _P[name]))
    return RoutineProfile(name=name, **values)


def routine_source(name: str) -> str:
    """The routine's MFL source, including globals and the main driver."""
    return generate_routine_source(routine_profile(name))


def build_routine(name: str) -> Program:
    """A fresh, unoptimized IR program for one suite routine."""
    return frontend.compile_source(routine_source(name), name)
