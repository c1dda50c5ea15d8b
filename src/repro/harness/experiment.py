"""Experiment runner: compile each workload under each allocator variant,
simulate it, and collect the metrics the paper's tables report.

Variants (the paper's four columns):

* ``baseline``       — Chaitin-Briggs, all spills to the stack ("Without CCM")
* ``postpass``       — baseline, then the intraprocedural post-pass CCM
                       allocator ("Post-Pass")
* ``postpass_cg``    — baseline, then the interprocedural post-pass
                       allocator ("Post-Pass w/ Call Graph")
* ``integrated``     — CCM spilling inside the allocator ("Integrated")

Results are memoized per (workload, variant, CCM size) because every
table and figure slices the same underlying runs.  Under the in-memory
memo sit the two layers of :mod:`repro.exec`: ``jobs > 1`` fans
uncached (workload, variant) jobs out over worker processes, and an
:class:`~repro.exec.ArtifactCache` persists finished results across
CLI invocations, keyed by the workload's printed IR + the pipeline
configuration + the package code version.  Both layers are exact: a
parallel or cache-served sweep reports bit-identical rows to a cold
serial one.

Every variant is a key of one :class:`~repro.exec.plan.CompilePlan`
per workload: a serial runner builds, optimizes and allocates each
workload once, placed for both of its CCM sizes, and each job
materializes only its own CCM decision.  A pool job compiles from a
plan of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import VARIANTS  # re-exported: the harness's variant list
from ..ccm import compact_spill_memory
from ..exec import ArtifactCache, StageClock, SweepStats, run_jobs
from ..exec.compare import values_match
from ..exec.plan import CompilePlan, PlanKey
from ..ir import Program, format_program, verify_program
from ..machine import (DataCache, MachineConfig, RunStats, Simulator,
                       PAPER_MACHINE_512, PAPER_MACHINE_1024)
from ..trace import TraceRecorder, recording
from ..workloads.suite import build_routine, suite_names


@dataclass
class VariantResult:
    """One compiled+simulated configuration of one workload."""

    workload: str
    variant: str
    ccm_bytes: int
    value: object
    stats: RunStats
    spill_bytes: Dict[str, int] = field(default_factory=dict)
    ccm_high_water: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def memory_cycles(self) -> int:
        return self.stats.memory_cycles

    def to_json(self) -> dict:
        """Stable JSON row (used by the equivalence tests and --stats)."""
        return {
            "workload": self.workload,
            "variant": self.variant,
            "ccm_bytes": self.ccm_bytes,
            "value": repr(self.value),
            "cycles": self.stats.cycles,
            "memory_cycles": self.stats.memory_cycles,
            "instructions": self.stats.instructions,
            "spill_traffic": self.stats.spill_traffic,
            "ccm_traffic": self.stats.ccm_traffic,
            "spill_bytes": dict(sorted(self.spill_bytes.items())),
            "ccm_high_water": dict(sorted(self.ccm_high_water.items())),
        }


def compile_program(prog: Program, machine: MachineConfig,
                    variant: str) -> None:
    """Optimize, lower, and allocate every function of ``prog`` in place
    under the given variant: a one-key plan call whose compiled,
    verified functions replace ``prog``'s."""
    prog.functions = _compile_job(CompilePlan(prog), variant,
                                  machine).functions


def _compile_job(plan: CompilePlan, variant: str,
                 machine: MachineConfig) -> Program:
    """One job's verified program, compiled from ``plan``."""
    prog = plan.compile(PlanKey(variant, machine))
    verify_program(prog)
    return prog


def _result(workload: str, variant: str, machine: MachineConfig,
            prog: Program, run) -> "VariantResult":
    return VariantResult(
        workload, variant, machine.ccm_bytes, run.value, run.stats,
        spill_bytes={name: fn.frame_size
                     for name, fn in prog.functions.items()},
        ccm_high_water={name: fn.ccm_high_water
                        for name, fn in prog.functions.items()})


def _reference_run(prog: Program):
    """Unoptimized, unallocated execution: the semantic ground truth."""
    return Simulator(prog).run().value


def _variant_descriptor(variant: str, machine: MachineConfig,
                        verify_values: bool) -> str:
    """Artifact-cache pipeline-config component for one harness job."""
    return (f"harness:{variant}:verify={verify_values}:{machine!r}")


def _variant_job(workload: str, variant: str, machine: MachineConfig,
                 build: Callable[[str], Program], verify_values: bool,
                 cache_root: Optional[str], cache_version: Optional[str],
                 references: Optional[Dict[str, object]] = None,
                 trace: bool = False,
                 plans: Optional[Dict[str, CompilePlan]] = None,
                 ccm_sizes: Tuple[int, ...] = ()
                 ) -> Tuple["VariantResult", dict, object]:
    """One job: build, compile, simulate, verify one configuration.

    Module-level so it pickles across the process boundary.  Returns
    ``(result, timing payload, reference value)`` — the reference value
    comes back so the parent can memoize it for later variants of the
    same workload.

    ``plans`` (serial runs only) maps workloads to their compile plans:
    the job reuses the workload's plan, or on its first artifact-cache
    miss creates one placed for ``ccm_sizes`` and stores it there.
    Without ``plans`` the job compiles from a plan of its own.

    ``trace`` installs a per-job :class:`TraceRecorder` around the
    compile+simulate work and ships its payload back inside the timing
    payload (``payload["trace"]``); tracing never changes what the job
    computes, only what it reports, so traced and untraced sweeps
    produce bit-identical results.  Cache-served jobs skip compilation
    and therefore carry no trace payload.
    """
    args = (workload, variant, machine, build, verify_values, cache_root,
            cache_version, references, plans, ccm_sizes)
    if not trace:
        return _variant_job_inner(*args)
    recorder = TraceRecorder()
    with recording(recorder):
        result = _variant_job_inner(*args)
    if recorder.events:
        result[1]["trace"] = recorder.to_payload()
    return result


def _variant_job_inner(workload, variant, machine, build, verify_values,
                       cache_root, cache_version, references, plans,
                       ccm_sizes):
    clock = StageClock()
    artifacts = (ArtifactCache(cache_root, version=cache_version)
                 if cache_root is not None else None)
    plan = plans.get(workload) if plans is not None else None

    with clock.stage("build"):
        # a plan never modifies its source program
        prog = plan.program if plan is not None else build(workload)

    key = ref_key = None
    reference = (references or {}).get(workload)
    if artifacts is not None:
        source_text = format_program(prog)
        key = artifacts.key(source_text,
                            _variant_descriptor(variant, machine,
                                                verify_values))
        ref_key = artifacts.key(source_text, "harness:reference")
        hit, cached = artifacts.get(key)
        if hit:
            payload = clock.to_payload(cache_hit=True)
            payload["cache_errors"] = artifacts.errors
            payload["cache_stores"] = artifacts.stores
            return cached, payload, reference
        if reference is None and verify_values:
            ref_hit, ref_cached = artifacts.get(ref_key)
            if ref_hit:
                reference = ref_cached

    if verify_values and reference is None:
        with clock.stage("reference"):
            reference = _reference_run(prog.clone())
        if artifacts is not None:
            artifacts.put(ref_key, reference)

    with clock.stage("compile"):
        if plan is None:
            plan = CompilePlan(prog, ccm_sizes)
            if plans is not None:
                plans[workload] = plan
        prog = _compile_job(plan, variant, machine)
    with clock.stage("simulate"):
        run = Simulator(prog, machine, poison_caller_saved=True).run()
    if verify_values and not values_match(run.value, reference):
        raise AssertionError(
            f"{workload}/{variant}: value {run.value!r} diverged "
            f"from reference {reference!r}")
    result = _result(workload, variant, machine, prog, run)
    if artifacts is not None:
        artifacts.put(key, result)
    payload = clock.to_payload(cache_hit=False)
    if artifacts is not None:
        payload["cache_errors"] = artifacts.errors
        payload["cache_stores"] = artifacts.stores
    return result, payload, reference


@dataclass
class ExperimentRunner:
    """Compiles and simulates workloads, with memoization.

    ``jobs`` sets the default fan-out for :meth:`run_all` (1 = serial
    in-process).  ``artifacts`` plugs in the persistent on-disk cache;
    ``stats`` accumulates per-stage timing and cache hit rates across
    everything this runner executes.

    In-process jobs share one :class:`~repro.exec.plan.CompilePlan` per
    workload, created on the workload's first artifact-cache miss and
    placed for the CCM sizes of ``machine_512`` and ``machine_1024``.
    """

    machine_512: MachineConfig = PAPER_MACHINE_512
    machine_1024: MachineConfig = PAPER_MACHINE_1024
    build: Callable[[str], Program] = None
    verify_values: bool = True
    jobs: int = 1
    artifacts: Optional[ArtifactCache] = None
    #: enable per-job tracing; counters aggregate into ``stats.trace``
    #: and, when ``recorder`` is set, events merge into it for export
    trace: bool = False
    recorder: Optional[TraceRecorder] = None

    def __post_init__(self):
        if self.build is None:
            self.build = build_routine
        self._cache: Dict[Tuple[str, str, int], VariantResult] = {}
        self._reference: Dict[str, object] = {}
        #: workload -> its compile plan, for in-process jobs
        self._plans: Dict[str, CompilePlan] = {}
        self.stats = SweepStats(jobs=max(self.jobs, 1))

    def machine(self, ccm_bytes: int) -> MachineConfig:
        if ccm_bytes == 512:
            return self.machine_512
        if ccm_bytes == 1024:
            return self.machine_1024
        return MachineConfig(ccm_bytes=ccm_bytes)

    def reference_value(self, workload: str):
        """Unoptimized, unallocated execution: the semantic ground truth."""
        if workload not in self._reference:
            self._reference[workload] = _reference_run(self.build(workload))
        return self._reference[workload]

    def _job(self, variant: str, ccm_bytes: int,
             serial: bool = False) -> Callable:
        """A job of ``variant`` at ``ccm_bytes``; a ``serial`` one runs
        in-process and shares the runner's plans."""
        extra = {}
        if serial:
            extra = dict(plans=self._plans, ccm_sizes=self._ccm_sizes)
        return functools.partial(
            _variant_job, variant=variant, machine=self.machine(ccm_bytes),
            build=self.build, verify_values=self.verify_values,
            cache_root=(self.artifacts.root
                        if self.artifacts is not None else None),
            cache_version=(self.artifacts.version
                           if self.artifacts is not None else None),
            references=dict(self._reference), trace=self.trace, **extra)

    @property
    def _ccm_sizes(self) -> Tuple[int, int]:
        """The CCM sizes every plan of this runner is placed for."""
        return self.machine_512.ccm_bytes, self.machine_1024.ccm_bytes

    def _plan(self, workload: str) -> CompilePlan:
        if workload not in self._plans:
            self._plans[workload] = CompilePlan(self.build(workload),
                                                self._ccm_sizes)
        return self._plans[workload]

    def _absorb(self, key: Tuple[str, str, int], result: VariantResult,
                payload: dict, reference: object) -> None:
        workload = key[0]
        self.stats.merge_job(payload)
        if self.recorder is not None:
            self.recorder.merge_payload(payload.get("trace"))
        if reference is not None and workload not in self._reference:
            self._reference[workload] = reference
        self._cache[key] = result

    def run(self, workload: str, variant: str,
            ccm_bytes: int = 512, cache: Optional[DataCache] = None
            ) -> VariantResult:
        if cache is not None:
            # A caller-supplied DataCache changes the timing model, so
            # these runs bypass both memo layers; reset it so tag state
            # and hit/miss statistics never leak from a previous run
            # (reusing a warm cache used to skew ablation numbers).
            cache.reset()
            return self._run_with_data_cache(workload, variant, ccm_bytes,
                                             cache)
        key = (workload, variant, ccm_bytes)
        if key not in self._cache:
            result, payload, reference = self._job(
                variant, ccm_bytes, serial=True)(workload)
            self._absorb(key, result, payload, reference)
        return self._cache[key]

    def _run_with_data_cache(self, workload: str, variant: str,
                             ccm_bytes: int,
                             cache: DataCache) -> VariantResult:
        machine = self.machine(ccm_bytes)
        prog = _compile_job(self._plan(workload), variant, machine)
        sim = Simulator(prog, machine, cache=cache, poison_caller_saved=True)
        run = sim.run()
        if self.verify_values:
            ref = self.reference_value(workload)
            if not values_match(run.value, ref):
                raise AssertionError(
                    f"{workload}/{variant}: value {run.value!r} diverged "
                    f"from reference {ref!r}")
        return _result(workload, variant, machine, prog, run)

    def run_all(self, variant: str, ccm_bytes: int = 512,
                workloads: Optional[List[str]] = None,
                jobs: Optional[int] = None) -> Dict[str, VariantResult]:
        """Run one variant over the whole suite (or a subset).

        ``jobs > 1`` fans the uncached workloads out over worker
        processes; rows come back and are reported in suite order, so
        the result is identical to the serial sweep.
        """
        names = list(workloads) if workloads is not None else suite_names()
        jobs = self.jobs if jobs is None else jobs
        missing = [name for name in names
                   if (name, variant, ccm_bytes) not in self._cache]
        if jobs > 1 and len(missing) > 1:
            self.stats.jobs = max(self.stats.jobs, jobs)
            job = self._job(variant, ccm_bytes)
            for name, (result, payload, ref) in run_jobs(job, missing,
                                                         jobs=jobs):
                self._absorb((name, variant, ccm_bytes), result, payload,
                             ref)
        return {name: self.run(name, variant, ccm_bytes) for name in names}


def compaction_measurements(workloads: Optional[List[str]] = None,
                            machine: MachineConfig = PAPER_MACHINE_512,
                            jobs: int = 1):
    """Table 1 data: per-routine spill bytes before/after compaction."""
    names = list(workloads) if workloads is not None else suite_names()
    results = []
    for _, result in run_jobs(functools.partial(_compaction_job,
                                                machine=machine),
                              names, jobs=jobs):
        results.append(result)
    return results


def _compaction_job(name: str, machine: MachineConfig):
    prog = _compile_job(CompilePlan(build_routine(name)), "baseline",
                        machine)
    return compact_spill_memory(prog.functions[name])
