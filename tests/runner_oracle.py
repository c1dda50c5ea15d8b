"""Per-config scalar runners: the oracle for the batched sweep paths.

The difftest runner and the section 4.3 ablation simulate a whole
group of configurations per shared pass
(:class:`~repro.machine.BatchSimulation`), and the difftest runner
compiles one program per CCM decision key, not per config.  These are
the plain loops they replace: compile one configuration on its own
clone, run one :class:`~repro.machine.Simulator`, judge or record it,
next.  ``test_batched_runners`` and ``test_difftest_decision_keys``
hold the shipped runners equal to them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ccm_oracle import promote_spills_walk

from repro.ccm import allocate_function_integrated, compact_spill_memory
from repro.difftest.runner import (DiffConfig, Divergence, SeedResult,
                                   _chaitin, _execute, _judge,
                                   _machine_error_divergence, _machine_for,
                                   _setting, _StageCache, config_lattice)
from repro.frontend import compile_source
from repro.harness.ablation import CONFIGS, AblationCell
from repro.harness.experiment import compile_program
from repro.ir import verify_program
from repro.machine import DataCache, MachineConfig, SimulationError, Simulator
from repro.workloads.suite import build_routine

__all__ = ["compile_config_scalar", "check_source_scalar",
           "ablation_cells_scalar"]


def compile_config_scalar(stages: _StageCache, config: DiffConfig):
    """One config's program on its own clone of the stage cache's
    snapshot: the per-function post-pass walk of ``ccm_oracle`` (its
    own web analyses and compaction), the placement materialized for
    the config's size, or the SSA backend's own allocation at that
    size.  Returns (program, machine), not yet verified."""
    machine = _machine_for(config)
    setting = _setting(config)
    if config.variant == "integrated":
        if _chaitin(config.allocator):
            program = stages.allocated(*setting).clone()
            placements = stages._placements[setting]
            for fn in program.functions.values():
                placements[fn.name].materialize(fn, config.ccm_bytes)
        else:
            program = stages.lowered(config.optimize,
                                     config.geometry).clone()
            for fn in program.functions.values():
                allocate_function_integrated(
                    fn, machine, engine=config.allocator,
                    rematerialize=config.rematerialize)
        if config.compaction:
            for fn in program.functions.values():
                compact_spill_memory(fn)
        return program, machine
    program = stages.allocated(*setting).clone()
    if config.variant in ("postpass", "postpass_cg"):
        promote_spills_walk(program, machine,
                            interprocedural=config.variant == "postpass_cg")
    if config.compaction:
        for fn in program.functions.values():
            compact_spill_memory(fn)
    return program, machine


def check_source_scalar(source: str,
                        configs: Optional[Sequence[DiffConfig]] = None,
                        seed: Optional[int] = None,
                        fault=None) -> SeedResult:
    """:func:`repro.difftest.check_source` as one simulation per config
    (no artifact cache, no clock), verifying every config's program."""
    configs = list(configs) if configs is not None else config_lattice()
    result = SeedResult(seed, n_configs=len(configs))
    try:
        base = compile_source(source)
        verify_program(base)
    except Exception as exc:
        result.skipped = f"reference failed to compile: {exc}"
        return result
    try:
        reference = _execute(base, MachineConfig(), poison=False)
    except SimulationError as exc:
        result.skipped = f"reference machine error: {exc}"
        return result
    stages = _StageCache(base, configs)
    baseline_spill: Dict[tuple, int] = {}
    for config in configs:
        try:
            program, machine = compile_config_scalar(stages, config)
            verify_program(program)
        except Exception as exc:
            divergence = Divergence(None, config.name, "compile_error",
                                    f"{type(exc).__name__}: {exc}")
        else:
            if fault is not None:
                fault(program)
            try:
                outcome = _execute(program, machine, poison=True)
            except SimulationError as exc:
                divergence = _machine_error_divergence(config, exc,
                                                       reference)
            else:
                divergence = _judge(config, outcome, reference,
                                    baseline_spill, fault)
        if divergence is not None:
            divergence.seed = seed
            divergence.source = source
            result.divergences.append(divergence)
    return result


def ablation_cells_scalar(routines: Sequence[str],
                          machine: Optional[MachineConfig] = None
                          ) -> List[AblationCell]:
    """:func:`repro.harness.ablation.run_ablation`'s cells, one
    :class:`Simulator` + :class:`DataCache` run per cell."""
    machine = machine or MachineConfig(ccm_bytes=1024)
    cells = []
    for routine in routines:
        for name, (variant, cache_config) in CONFIGS.items():
            prog = build_routine(routine)
            compile_program(prog, machine, variant)
            cache = DataCache(cache_config)
            run = Simulator(prog, machine, cache=cache,
                            poison_caller_saved=True).run()
            cells.append(AblationCell(
                routine, name, run.stats.cycles, run.stats.memory_cycles,
                cache.stats.hit_rate, cache.stats.effective_hit_rate))
    return cells
