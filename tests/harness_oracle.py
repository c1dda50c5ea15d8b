"""The per-variant compile path: the oracle for the compile plan.

:func:`repro.harness.experiment.compile_program` and the experiment
runner compile every variant as a key of one
:class:`~repro.exec.plan.CompilePlan`: one allocation placed for each
CCM size, then a CCM decision per key.  :func:`compile_program_oracle`
is the path they replace — optimize, lower and allocate the program
for each variant on its own, the integrated variant with the per-size
integrated allocator, the post-pass variants through
:func:`~repro.ccm.promote_spills_postpass` — and
:func:`variant_row_oracle` is one harness row compiled through it.
``test_harness_plan`` holds the shipped paths equal to them.
"""

from __future__ import annotations

from repro import VARIANTS
from repro.ccm import allocate_function_integrated, promote_spills_postpass
from repro.exec.compare import values_match
from repro.harness.experiment import VariantResult
from repro.ir import Program, verify_program
from repro.machine import MachineConfig, Simulator
from repro.opt import optimize_program
from repro.regalloc import allocate_function, lower_calling_convention

__all__ = ["compile_program_oracle", "variant_row_oracle"]


def compile_program_oracle(prog: Program, machine: MachineConfig,
                           variant: str) -> None:
    """Optimize, lower, and allocate every function of ``prog`` in place
    under the given variant, one variant at a time."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
    optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
        if variant == "integrated":
            allocate_function_integrated(fn, machine)
        else:
            allocate_function(fn, machine)
    if variant == "postpass":
        promote_spills_postpass(prog, machine, interprocedural=False)
    elif variant == "postpass_cg":
        promote_spills_postpass(prog, machine, interprocedural=True)
    verify_program(prog)


def variant_row_oracle(workload: str, prog: Program, variant: str,
                       machine: MachineConfig,
                       verify_values: bool = True) -> VariantResult:
    """The harness row of ``prog`` (built for ``workload``) compiled by
    :func:`compile_program_oracle`, checked against the unoptimized
    reference run when ``verify_values``."""
    reference = Simulator(prog.clone()).run().value
    compile_program_oracle(prog, machine, variant)
    run = Simulator(prog, machine, poison_caller_saved=True).run()
    if verify_values:
        assert values_match(run.value, reference), (workload, variant)
    return VariantResult(
        workload, variant, machine.ccm_bytes, run.value, run.stats,
        spill_bytes={name: fn.frame_size
                     for name, fn in prog.functions.items()},
        ccm_high_water={name: fn.ccm_high_water
                        for name, fn in prog.functions.items()})
