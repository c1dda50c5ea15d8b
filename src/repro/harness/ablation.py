"""Section 4.3 ablations: CCM versus memory-hierarchy alternatives.

The paper discusses (in prose) how a better cache, a write buffer, a
victim cache, and prefetching would interact with spill traffic.  This
module turns the first three into measured experiments: attach a data
cache to the simulator, so stack spills share the cache with program
data (pollution) while CCM traffic bypasses it, and compare

* ``small-cache``   — baseline spills through a small direct-mapped cache
* ``better-cache``  — same code, 4x larger 2-way cache
* ``write-buffer``  — small cache plus a store-miss-absorbing buffer
* ``victim-cache``  — small cache plus an 8-line victim cache
* ``ccm``           — post-pass CCM promotion, small cache

The paper's prediction to check: the alternatives help, but each
"leaves the spill traffic on the pathway to main memory", so CCM should
beat them on spill-heavy code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exec import ArtifactCache, StageClock, SweepStats, run_jobs
from ..ir import format_program
from ..machine import (BatchMember, BatchSimulation, CacheConfig,
                       MachineConfig)
from ..workloads.suite import build_routine
from .experiment import compile_program

#: intentionally small so spill traffic visibly competes with data
SMALL_CACHE = CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                          hit_latency=1, miss_penalty=10)
# iso-capacity with small-cache + 1KB CCM, so "ccm" vs "better-cache"
# compares the same total on-chip SRAM budget
BETTER_CACHE = CacheConfig(size_bytes=2048, line_bytes=32, associativity=1,
                           hit_latency=1, miss_penalty=10)
WRITE_BUFFER_CACHE = CacheConfig(size_bytes=1024, line_bytes=32,
                                 associativity=1, hit_latency=1,
                                 miss_penalty=10, write_buffer=True)
VICTIM_CACHE = CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                           hit_latency=1, miss_penalty=10, victim_entries=8)

CONFIGS = {
    "small-cache": ("baseline", SMALL_CACHE),
    "better-cache": ("baseline", BETTER_CACHE),
    "write-buffer": ("baseline", WRITE_BUFFER_CACHE),
    "victim-cache": ("baseline", VICTIM_CACHE),
    "ccm": ("postpass_cg", SMALL_CACHE),
}

#: spill-heavy subset used by default (full suite works, just slower)
DEFAULT_ROUTINES = ["twldrv", "fpppp", "deseco", "jacld", "supp", "radf4X"]


@dataclass
class AblationCell:
    routine: str
    config: str
    cycles: int
    memory_cycles: int
    #: raw hit rate: write-buffer-absorbed store misses count as misses
    hit_rate: float
    #: effective hit rate: absorbed store misses complete at hit latency,
    #: so they count as hits — the number the section-4.3 comparison
    #: actually cares about (see CacheStats.effective_hit_rate)
    effective_hit_rate: float = 0.0

    def __post_init__(self):
        if self.effective_hit_rate < self.hit_rate:
            self.effective_hit_rate = self.hit_rate


@dataclass
class AblationResult:
    cells: List[AblationCell]

    def ratio(self, routine: str, config: str) -> float:
        base = self._cell(routine, "small-cache").cycles
        return self._cell(routine, config).cycles / base

    def _cell(self, routine: str, config: str) -> AblationCell:
        for cell in self.cells:
            if cell.routine == routine and cell.config == config:
                return cell
        raise KeyError((routine, config))

    def format(self) -> str:
        routines = sorted({c.routine for c in self.cells})
        lines = [
            "Section 4.3 ablation: cycles relative to spilling through a "
            "small cache",
            f"{'Routine':10s}" + "".join(f"{name:>14s}" for name in CONFIGS),
        ]
        for routine in routines:
            cells = [f"{self.ratio(routine, config):.2f}"
                     for config in CONFIGS]
            lines.append(f"{routine:10s}" + "".join(f"{c:>14s}" for c in cells))
        lines.append("")

        def mean(attr: str, config: str) -> float:
            return sum(getattr(c, attr) for c in self.cells
                       if c.config == config) / len(routines)

        lines.append(f"{'hit rate':10s}" + "".join(
            f"{mean('hit_rate', config):>14.3f}" for config in CONFIGS))
        # the write buffer services absorbed store misses at hit latency,
        # so the effective row is the apples-to-apples one
        lines.append(f"{'effective':10s}" + "".join(
            f"{mean('effective_hit_rate', config):>14.3f}"
            for config in CONFIGS))
        return "\n".join(lines)


def _cell_key(artifacts: ArtifactCache, program_text: str, config_name: str,
              machine: MachineConfig) -> str:
    variant, cache_config = CONFIGS[config_name]
    return artifacts.key(
        program_text,
        f"ablation:{config_name}:{variant}:{cache_config!r}:{machine!r}")


def _ablation_batch_job(item: Tuple[str, str, Tuple[str, ...]],
                        machine: MachineConfig,
                        cache_root: Optional[str],
                        cache_version: Optional[str]
                        ) -> Tuple[List[AblationCell], dict]:
    """One pool job: every ablation config of one (routine, variant)
    pair, simulated in a single shared pass.

    The grid's grouping is static — all four cache ablations run the
    identical baseline-compiled routine and differ only in their
    attached cache, which is exactly a batch's fan-out axis — so each
    cell is bit-identical to a scalar run with that cell's
    :class:`~repro.machine.DataCache`.  Cells are cached one artifact
    each.
    """
    routine, variant, config_names = item
    clock = StageClock()
    artifacts = (ArtifactCache(cache_root, version=cache_version)
                 if cache_root is not None else None)
    with clock.stage("build"):
        prog = build_routine(routine)
    cells: Dict[str, AblationCell] = {}
    keys: Dict[str, str] = {}
    if artifacts is not None:
        text = format_program(prog)
        for name in config_names:
            keys[name] = _cell_key(artifacts, text, name, machine)
            hit, cached = artifacts.get(keys[name])
            if hit:
                cells[name] = cached
    missing = [name for name in config_names if name not in cells]
    if missing:
        with clock.stage("compile"):
            compile_program(prog, machine, variant)
        with clock.stage("simulate"):
            batch = BatchSimulation(
                prog, [BatchMember(machine, CONFIGS[name][1])
                       for name in missing],
                poison_caller_saved=True)
            runs = batch.run()
        for name, run in zip(missing, runs):
            cstats = run.stats.cache
            cells[name] = AblationCell(
                routine, name, run.stats.cycles, run.stats.memory_cycles,
                cstats.hit_rate, cstats.effective_hit_rate)
            if artifacts is not None:
                artifacts.put(keys[name], cells[name])
    payload = clock.to_payload(cache_hit=not missing)
    if artifacts is not None:
        payload["cache_errors"] = artifacts.errors
        payload["cache_stores"] = artifacts.stores
    return [cells[name] for name in config_names], payload


def run_ablation(routines: Optional[List[str]] = None,
                 machine: Optional[MachineConfig] = None,
                 jobs: int = 1,
                 artifacts: Optional[ArtifactCache] = None,
                 stats: Optional[SweepStats] = None) -> AblationResult:
    machine = machine or MachineConfig(ccm_bytes=1024)
    cache_root = artifacts.root if artifacts is not None else None
    cache_version = artifacts.version if artifacts is not None else None
    # one job per (routine, variant): its configs share one pass
    grouped: Dict[Tuple[str, str], List[str]] = {}
    for routine in (routines or DEFAULT_ROUTINES):
        for config_name, (variant, _) in CONFIGS.items():
            grouped.setdefault((routine, variant), []).append(config_name)
    items = [(routine, variant, tuple(names))
             for (routine, variant), names in grouped.items()]
    job = functools.partial(
        _ablation_batch_job, machine=machine,
        cache_root=cache_root, cache_version=cache_version)
    cells: List[AblationCell] = []
    for _, (group_cells, payload) in run_jobs(job, items, jobs=jobs):
        cells.extend(group_cells)
        if stats is not None:
            stats.merge_job(payload)
    return AblationResult(cells)
