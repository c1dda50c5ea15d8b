"""Whole-program workloads for Figures 3 and 4.

The paper's Figures 3/4 report total running time for six programs (out
of thirteen) that improved under CCM spilling, each with three bars:
intraprocedural post-pass, interprocedural post-pass, and the integrated
allocator, relative to running without CCM.  The extracted paper text
does not preserve the program names, so the reproduction assembles six
programs from suite routines along the obvious benchmark groupings
(their SPEC sources): the Figure 3/4 *shape* — every program at or below
1.0, interprocedural at least as good as the others — is the target.
"""

from __future__ import annotations

from typing import Dict, List

from .. import frontend   # see the note in .suite
from ..ir import Program
from .generator import generate_program_source
from .suite import routine_profile

#: program name -> routines it is assembled from
PROGRAM_ROUTINES: Dict[str, List[str]] = {
    "fppppprg": ["fpppp", "twldrv", "fmin"],
    "applu": ["jacld", "jacu", "rhs", "erhs", "blts", "buts"],
    "turb3d": ["subb", "supp", "energyX", "dyeh"],
    "wave5": ["parmvrX", "parmovX", "fieldX", "initX", "getbX",
              "putbX", "denptX"],
    "fourier": ["radb2X", "radb3X", "radf4X", "radf5X", "radbgX",
                "rfftilX", "cosqflX"],
    "hydro2d": ["deseco", "ddeflu", "debflu", "bilan", "pastern",
                "prophy", "paroi", "inisla"],
}


def program_names() -> List[str]:
    return list(PROGRAM_ROUTINES)


def program_source(name: str, iters_scale: float = 0.35) -> str:
    if name not in PROGRAM_ROUTINES:
        raise KeyError(f"unknown program {name!r}")
    profiles = [routine_profile(r) for r in PROGRAM_ROUTINES[name]]
    return generate_program_source(profiles, iters_scale)


def build_program(name: str) -> Program:
    """A fresh, unoptimized IR program for one Figure-3/4 program."""
    return frontend.compile_source(program_source(name), name)
