"""Differential runner: one seed, many configurations, one answer.

Each seed's MFL source is compiled under every point of a config
lattice::

    opt pipeline {on, off}
  x allocator   {baseline (no CCM), postpass, postpass_cg, integrated}
  x compaction  {off, on}
  x CCM size    {0, 64, 512, 1024} bytes

and executed on the cycle-accurate simulator.  The oracle is the
*unoptimized, unallocated* program (virtual registers, no spill code):
every configuration must produce the identical return value, identical
program traps, and identical final global-array contents.  On top of
semantic equality the runner checks sanity invariants:

* a no-CCM configuration performs zero CCM traffic, as does any
  configuration with a 0-byte CCM;
* dynamic CCM bytes touched never exceed the configured CCM size;
* the post-pass allocators only *retarget* spill instructions, so their
  combined (stack + CCM) spill traffic equals the stack spill traffic
  of the identically-optimized baseline.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec import ArtifactCache, StageClock, SweepStats, run_jobs
from ..exec.compare import values_match as _values_match
from ..exec.plan import CompilePlan, PlanKey
from ..frontend import compile_source
from ..ir import Program, verify_program
from ..machine import (BatchMember, BatchSimulation, BatchSplit,
                       MachineConfig, RunStats, SimulationError, Simulator,
                       arch_signature, group_batches, program_fingerprint)
from ..trace import TraceRecorder, recording, trace_counter, trace_span
from .gen import generate_source

DEFAULT_CCM_SIZES = (0, 64, 512, 1024)

#: instruction budget per simulation; generated programs run a few
#: thousand instructions, so hitting this means the generator produced
#: a non-terminating seed (kept low so such seeds are cheap to skip)
FUEL = 300_000

#: Register-file geometries for the lattice.  "small" (the default) has
#: 8 registers per class, so the tiny generated programs spill hard —
#: under the paper's 64-register machine they would barely spill at all
#: and the CCM paths would go untested.  "paper" is the evaluation
#: machine, for slower full-fidelity runs.
GEOMETRIES = {
    "small": dict(n_int_regs=8, n_float_regs=8, n_args=2,
                  callee_saved_start=6),
    "paper": {},
}


def _machine_for(config: "DiffConfig") -> MachineConfig:
    return MachineConfig(ccm_bytes=config.ccm_bytes,
                         **GEOMETRIES[config.geometry])


@dataclass(frozen=True)
class DiffConfig:
    """One point of the configuration lattice."""

    variant: str          # baseline | postpass | postpass_cg | integrated
    optimize: bool
    compaction: bool
    ccm_bytes: int
    geometry: str = "small"   # register-file geometry, see GEOMETRIES
    #: register-allocator backend ("chaitin", "ssa", "ssa-everywhere");
    #: None follows the process-wide REPRO_REGALLOC_ENGINE, so existing
    #: lattices run whole-hog under either backend via the env var
    allocator: Optional[str] = None
    #: never-killed-constant rematerialization in the allocator; keyed
    #: into config names (and so artifact-cache keys) when disabled
    rematerialize: bool = True

    @property
    def name(self) -> str:
        suffix = "" if self.geometry == "small" else f"@{self.geometry}"
        # the explicit default backend keeps historical names (and so
        # artifact-cache keys) unchanged; env-var-driven runs are
        # disambiguated by the cache's code-version suffix instead
        if self.allocator not in (None, "chaitin"):
            suffix += f"|{self.allocator}"
        if not self.rematerialize:
            suffix += "|noremat"
        return (f"{self.variant}"
                f"{'+opt' if self.optimize else ''}"
                f"{'+compact' if self.compaction else ''}"
                f"/ccm{self.ccm_bytes}{suffix}")

    @property
    def plan_key(self) -> PlanKey:
        """This config as a key of the compile plan."""
        return PlanKey(self.variant, _machine_for(self), self.optimize,
                       self.compaction, self.allocator, self.rematerialize)


def _split_allocator(token: Optional[str]) -> Tuple[Optional[str], bool]:
    """An allocator-axis token is a backend name, optionally suffixed
    ``-noremat`` to disable rematerialization for that lattice slice."""
    if token is not None and token.endswith("-noremat"):
        return token[:-len("-noremat")] or None, False
    return token, True


def config_lattice(ccm_sizes: Sequence[int] = DEFAULT_CCM_SIZES,
                   geometry: str = "small",
                   allocators: Sequence[Optional[str]] = (None,)
                   ) -> List[DiffConfig]:
    """The full lattice.  Baseline code never touches the CCM, so its
    compiled form is independent of the CCM size; it appears once per
    (opt, compaction) pair instead of once per CCM size.  ``allocators``
    adds the register-allocator axis (the default single ``None`` entry
    follows the process-wide engine, keeping the historical 52-config
    lattice); a ``-noremat`` suffix on a backend name runs that slice
    with rematerialization disabled."""
    configs: List[DiffConfig] = []
    for token in allocators:
        allocator, rematerialize = _split_allocator(token)
        for optimize in (True, False):
            for compaction in (False, True):
                configs.append(DiffConfig("baseline", optimize, compaction,
                                          max(ccm_sizes), geometry,
                                          allocator, rematerialize))
                for variant in ("postpass", "postpass_cg", "integrated"):
                    for ccm in ccm_sizes:
                        configs.append(DiffConfig(variant, optimize,
                                                  compaction, ccm, geometry,
                                                  allocator, rematerialize))
    return configs


@dataclass
class Outcome:
    """Observable behavior of one execution."""

    kind: str                       # "value" | "trap"
    value: object = None
    trap: Optional[str] = None
    globals: Dict[str, tuple] = field(default_factory=dict)
    stats: Optional[RunStats] = None


@dataclass
class Divergence:
    """One config whose behavior differs from the reference."""

    seed: Optional[int]
    config: str
    kind: str        # compile_error | value | trap | globals | invariant
    detail: str
    source: Optional[str] = None

    def to_json(self) -> dict:
        return {"seed": self.seed, "config": self.config, "kind": self.kind,
                "detail": self.detail}


@dataclass
class SeedResult:
    """Everything the runner learned about one seed."""

    seed: Optional[int]
    n_configs: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    skipped: Optional[str] = None   # reason the seed was uncheckable

    @property
    def ok(self) -> bool:
        return not self.divergences and self.skipped is None


@dataclass
class FuzzReport:
    """JSON-serializable summary of a fuzzing run."""

    seeds_run: int = 0
    seeds_skipped: int = 0
    configs_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "seeds_run": self.seeds_run,
            "seeds_skipped": self.seeds_skipped,
            "configs_run": self.configs_run,
            "n_divergences": len(self.divergences),
            "divergences": [d.to_json() for d in self.divergences],
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def format_json(self) -> str:
        return json.dumps(self.to_json(), indent=2)


# -- compilation under a config ------------------------------------------------


def plan_for(program: Program,
             configs: Sequence[DiffConfig]) -> CompilePlan:
    """The compile plan a lattice shares (:mod:`repro.exec.plan`): one
    allocation per (optimize, geometry, allocator, remat) setting,
    placed for every integrated CCM size of ``configs``, and one
    decision per config.  On the default lattice the 52 configs of a
    seed share about a dozen decision keys: every ``ccm0`` config and
    every size that moves nothing collapses onto the baseline's."""
    return CompilePlan(program, (c.ccm_bytes for c in configs
                                 if c.variant == "integrated"))


def finalize_config(plan: CompilePlan,
                    config: DiffConfig) -> Tuple[Program, MachineConfig]:
    """The fully compiled program for one lattice point, not yet
    verified: callers run :func:`verify_program` (the lattice runner
    once per distinct program)."""
    return plan.compile(config.plan_key), _machine_for(config)


def compile_config(program: Program, config: DiffConfig
                   ) -> Tuple[Program, MachineConfig]:
    """Compile and verify ``program`` under one config (standalone entry
    point; ``check_source`` goes through a shared :func:`plan_for`)."""
    program, machine = finalize_config(plan_for(program, [config]), config)
    verify_program(program)
    return program, machine


# -- execution -----------------------------------------------------------------


def _execute(program: Program, machine: MachineConfig,
             poison: bool) -> Outcome:
    sim = Simulator(program, machine, fuel=FUEL,
                    poison_caller_saved=poison)
    try:
        run = sim.run()
    except SimulationError as exc:
        if exc.kind == "trap":
            return Outcome("trap", trap=str(exc),
                           globals=sim.globals_snapshot())
        raise
    return Outcome("value", value=run.value, globals=sim.globals_snapshot(),
                   stats=run.stats)


def execute_reference(source: str) -> Tuple[Optional[Outcome], Optional[str]]:
    """Run the unoptimized, unallocated program: the semantic oracle.

    Returns (outcome, skip_reason); a reference that fails to compile or
    hits a machine-kind error is a generator bug, not a compiler bug, so
    the seed is reported as skipped rather than divergent.
    """
    try:
        program = compile_source(source)
        verify_program(program)
    except Exception as exc:
        return None, f"reference failed to compile: {exc}"
    try:
        return _execute(program, MachineConfig(), poison=False), None
    except SimulationError as exc:
        return None, f"reference machine error: {exc}"


def _globals_match(a: Dict[str, tuple], b: Dict[str, tuple]) -> Optional[str]:
    for name in a:
        va, vb = a[name], b.get(name)
        if vb is None or len(va) != len(vb):
            return f"global {name} shape differs"
        for i, (x, y) in enumerate(zip(va, vb)):
            if not _values_match(x, y):
                return f"global {name}[{i}]: {x!r} != {y!r}"
    return None


def _check_invariants(config: DiffConfig, stats: RunStats,
                      baseline_spill_traffic: Optional[int]) -> List[str]:
    problems: List[str] = []
    if config.variant == "baseline" or config.ccm_bytes == 0:
        if stats.ccm_traffic:
            problems.append(
                f"no-CCM config performed {stats.ccm_traffic} CCM accesses")
    if stats.max_ccm_offset >= 0 and \
            stats.max_ccm_offset + 1 > config.ccm_bytes:
        problems.append(
            f"CCM bytes touched ({stats.max_ccm_offset + 1}) exceed the "
            f"configured {config.ccm_bytes}-byte CCM")
    if config.variant in ("postpass", "postpass_cg") \
            and baseline_spill_traffic is not None:
        total = stats.ccm_traffic + stats.spill_traffic
        if total != baseline_spill_traffic:
            problems.append(
                f"post-pass traffic {total} (ccm {stats.ccm_traffic} + "
                f"stack {stats.spill_traffic}) != baseline spill traffic "
                f"{baseline_spill_traffic}")
    return problems


FaultFn = Optional[Callable[[Program], None]]


def check_source(source: str, configs: Optional[Sequence[DiffConfig]] = None,
                 seed: Optional[int] = None,
                 fault: FaultFn = None,
                 artifacts: Optional[ArtifactCache] = None,
                 clock: Optional[StageClock] = None) -> SeedResult:
    """Differentially test one MFL source against the whole lattice.

    ``fault``, if given, is applied to each compiled program before
    execution — used to validate that the oracle detects known
    miscompiles (see :mod:`repro.difftest.faults`).

    ``artifacts``, if given, is consulted before doing any work and
    updated after: an unchanged (source, lattice, code version) triple
    replays its recorded :class:`SeedResult` without compiling anything.
    Fault-injected runs are never cached — the fault function is not
    part of the key.

    ``clock``, if given, accumulates stage timings so SweepStats can
    report where a sweep's wall time actually goes: "compile" (front
    end + pipeline + allocation), "group" (batch keying), "execute"
    (the reference run) and "execute.batch" (shared lattice passes);
    ``--stats`` rolls the last two up into "execute".
    """
    configs = list(configs) if configs is not None else config_lattice()
    key = None
    if artifacts is not None and fault is None:
        lattice = "difftest-lattice:" + ";".join(c.name for c in configs)
        key = artifacts.key(source, lattice)
        hit, cached = artifacts.get(key)
        if hit:
            cached.seed = seed
            for divergence in cached.divergences:
                divergence.seed = seed
            return cached
    result = SeedResult(seed, n_configs=len(configs))

    try:
        with _timed(clock, "compile"):
            base = compile_source(source)
            verify_program(base)
    except Exception as exc:
        result.skipped = f"reference failed to compile: {exc}"
        return _record(artifacts, key, result)
    try:
        with _timed(clock, "execute"):
            reference = _execute(base, MachineConfig(), poison=False)
    except SimulationError as exc:
        result.skipped = f"reference machine error: {exc}"
        return _record(artifacts, key, result)

    divergences = _check_all_batched(plan_for(base, configs), configs,
                                     reference, fault, clock)
    for divergence in divergences:
        divergence.seed = seed
        divergence.source = source
        result.divergences.append(divergence)
    return _record(artifacts, key, result)


class _NullTimer:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TIMER = _NullTimer()


def _timed(clock: Optional[StageClock], name: str):
    return clock.stage(name) if clock is not None else _NULL_TIMER


def _record(artifacts: Optional[ArtifactCache], key: Optional[str],
            result: SeedResult) -> SeedResult:
    if artifacts is not None and key is not None:
        artifacts.put(key, result)
    return result


def _machine_error_divergence(config: DiffConfig, exc: SimulationError,
                              reference: Outcome) -> Divergence:
    return Divergence(None, config.name, "trap",
                      f"machine error in compiled code: {exc} "
                      f"(reference: {reference.kind})")


def _judge(config: DiffConfig, outcome: Outcome, reference: Outcome,
           baseline_spill: Dict[tuple, int],
           fault: FaultFn = None) -> Optional[Divergence]:
    """Compare one config's outcome against the reference and the
    sanity invariants.  ``baseline_spill`` collects the baseline's
    stack-spill traffic per (opt, allocator, remat) setting as configs
    are judged in lattice order, for the post-pass conservation
    invariant."""
    if reference.kind == "trap":
        if outcome.kind != "trap":
            return Divergence(None, config.name, "trap",
                              f"reference trapped ({reference.trap}) but "
                              f"config returned {outcome.value!r}")
        if outcome.trap != reference.trap:
            return Divergence(None, config.name, "trap",
                              f"trap mismatch: {outcome.trap!r} != "
                              f"{reference.trap!r}")
    else:
        if outcome.kind == "trap":
            return Divergence(None, config.name, "trap",
                              f"config trapped ({outcome.trap}) but "
                              f"reference returned {reference.value!r}")
        if not _values_match(outcome.value, reference.value):
            return Divergence(None, config.name, "value",
                              f"value {outcome.value!r} != reference "
                              f"{reference.value!r}")

    mismatch = _globals_match(reference.globals, outcome.globals)
    if mismatch is not None:
        return Divergence(None, config.name, "globals", mismatch)

    if outcome.stats is not None:
        if config.variant == "baseline" and not config.compaction \
                and fault is None:
            baseline_spill.setdefault((config.optimize, config.allocator,
                                       config.rematerialize),
                                      outcome.stats.spill_traffic)
        problems = _check_invariants(
            config, outcome.stats,
            None if fault is not None else
            baseline_spill.get((config.optimize, config.allocator,
                                config.rematerialize)))
        if problems:
            return Divergence(None, config.name, "invariant",
                              "; ".join(problems))
    return None


def _error_detail(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _verify(program: Program) -> Optional[str]:
    """:func:`verify_program`'s outcome as a value: None when the
    program passes, else the ``compile_error`` detail."""
    try:
        verify_program(program)
    except Exception as exc:
        return _error_detail(exc)
    return None


def _materialize(plan: CompilePlan, key: PlanKey, decision: tuple,
                 fault: FaultFn, verified: Dict[str, Optional[str]],
                 representatives: Dict[tuple, Program],
                 clock: Optional[StageClock]
                 ) -> Tuple[Optional[str], Optional[str]]:
    """Compile the representative of ``decision``, ``key``'s decision
    key: (fingerprint, None), or (None, the ``compile_error`` detail).
    Verifies each new fingerprint into ``verified``; keeps the program
    in ``representatives`` when it opens a batch group."""
    try:
        with _timed(clock, "compile"):
            program = plan.materialize(key, decision)
    except Exception as exc:
        return None, _error_detail(exc)
    with _timed(clock, "group"), trace_span("difftest.batch_key"):
        fingerprint = program_fingerprint(program)
    if fingerprint not in verified:
        with _timed(clock, "compile"), trace_span("difftest.verify"):
            verified[fingerprint] = _verify(program)
    if verified[fingerprint] is not None:
        return None, verified[fingerprint]
    if fault is not None:
        fault(program)
        with _timed(clock, "group"), trace_span("difftest.batch_key"):
            fingerprint = program_fingerprint(program)
    representatives.setdefault((fingerprint, arch_signature(key.machine)),
                               program)
    return fingerprint, None


def _check_all_batched(plan: CompilePlan, configs: Sequence[DiffConfig],
                       reference: Outcome, fault: FaultFn = None,
                       clock: Optional[StageClock] = None
                       ) -> List[Divergence]:
    """Compile, simulate, and judge the whole lattice.

    Decides each config (:meth:`CompilePlan.decision_key`) before
    compiling anything for it, and materializes, fingerprints and
    verifies one *representative* program per decision key; the
    configs sharing a key share its outcome — the fingerprint, or the
    ``compile_error`` each reports under its own name.  Configs are
    then grouped by batch key (as
    :func:`repro.machine.batch_key`: identical code under an
    architecturally-identical machine, so two decisions that reach the
    same program still share a batch), one :class:`BatchSimulation`
    runs per group, and each config is judged in lattice order — each
    outcome is bit-identical to a scalar run of that config, only the
    compile and execute stages are shared.  Stage clocks: ``compile``
    for deciding, materializing and verifying, ``group`` for
    fingerprinting (also traced as ``difftest.batch_key`` spans) and
    ``execute.batch`` for shared passes (the reference run stays in
    ``execute``).

    The 52 default configs share about a dozen decision keys
    (``difftest.decision_keys`` counter) and compile to about ten
    distinct programs, so :func:`verify_program` runs once per
    :func:`program_fingerprint` (traced as ``difftest.verify`` spans,
    counted by the ``difftest.distinct_programs`` counter).  No check
    is lost: the verifier reads only fields the fingerprint encodes.  A
    fault applies after verification, as in a scalar run, so a faulted
    representative is fingerprinted again for its batch key.

    Only one representative program is kept per batch group — a
    member's contribution beyond its fingerprint is just its machine.
    Dropping the others as they are keyed matters: holding a whole
    lattice of compiled programs alive makes every later compile and
    simulate pay for garbage-collector sweeps over it.
    """
    n = len(configs)
    keys: List[Optional[tuple]] = []
    machines: List[Optional[MachineConfig]] = [None] * n
    representatives: Dict[tuple, Program] = {}
    compile_errors: Dict[int, Divergence] = {}
    #: fingerprint -> the verifier's error detail for that program
    verified: Dict[str, Optional[str]] = {}
    #: decision key -> (fingerprint, None) or (None, compile error)
    decided: Dict[tuple, Tuple[Optional[str], Optional[str]]] = {}
    for index, config in enumerate(configs):
        try:
            with _timed(clock, "compile"):
                key = config.plan_key
                decision = plan.decision_key(key)
        except Exception as exc:
            compile_errors[index] = Divergence(
                None, config.name, "compile_error", _error_detail(exc))
            keys.append(None)
            continue
        machine = key.machine
        if decision not in decided:
            decided[decision] = _materialize(plan, key, decision, fault,
                                             verified, representatives,
                                             clock)
        fingerprint, error = decided[decision]
        if error is not None:
            compile_errors[index] = Divergence(
                None, config.name, "compile_error", error)
            keys.append(None)
            continue
        keys.append((fingerprint, arch_signature(machine)))
        machines[index] = machine
    trace_counter("difftest.decision_keys", len(decided))
    trace_counter("difftest.distinct_programs", len(verified))

    outcomes: List[Optional[Outcome]] = [None] * n
    machine_errors: List[Optional[SimulationError]] = [None] * n
    pending = group_batches(keys)
    while pending:
        group = pending.pop()
        program = representatives[keys[group[0]]]
        batch = BatchSimulation(
            program, [BatchMember(machines[i]) for i in group],
            fuel=FUEL, poison_caller_saved=True, clock=clock)
        try:
            runs = batch.run()
        except BatchSplit as split:
            # the group's ccm_bytes limits actually diverged (watermark
            # reached, or a trap with mixed limits): re-dispatch each
            # limit class as its own strict single-limit batch
            pending.extend([group[j] for j in sub] for sub in split.groups)
            continue
        except SimulationError as exc:
            # architectural determinism: the whole group shares the
            # trap (or machine error) and the post-trap global state
            if exc.kind == "trap":
                shared = Outcome("trap", trap=str(exc),
                                 globals=batch.globals_snapshot())
                for i in group:
                    outcomes[i] = shared
            else:
                for i in group:
                    machine_errors[i] = exc
            continue
        shared_globals = batch.globals_snapshot()
        for i, run in zip(group, runs):
            outcomes[i] = Outcome("value", value=run.value,
                                  globals=shared_globals, stats=run.stats)

    baseline_spill: Dict[tuple, int] = {}
    divergences: List[Divergence] = []
    for index, config in enumerate(configs):
        if index in compile_errors:
            divergences.append(compile_errors[index])
            continue
        if machine_errors[index] is not None:
            divergences.append(_machine_error_divergence(
                config, machine_errors[index], reference))
            continue
        divergence = _judge(config, outcomes[index], reference,
                            baseline_spill, fault)
        if divergence is not None:
            divergences.append(divergence)
    return divergences


def check_seed(seed: int, configs: Optional[Sequence[DiffConfig]] = None,
               artifacts: Optional[ArtifactCache] = None) -> SeedResult:
    """Generate the seed's program and differentially test it."""
    return check_source(generate_source(seed), configs, seed=seed,
                        artifacts=artifacts)


def _seed_job(seed: int, configs: Sequence[DiffConfig],
              cache_root: Optional[str], cache_version: Optional[str],
              trace: bool = False) -> Tuple[SeedResult, dict]:
    """One pool job: check one seed, with timing and artifact caching.

    Module-level so it pickles across the process boundary; the worker
    opens its own handle on the shared cache directory (content-
    addressed keys + atomic writes make concurrent use safe).

    ``trace`` wraps the check in a per-job :class:`TraceRecorder` and
    ships its payload back as ``payload["trace"]``.  Tracing is
    observation only: the :class:`SeedResult` (and hence any cached
    artifact) is bit-identical with and without it.
    """
    clock = StageClock()
    artifacts = (ArtifactCache(cache_root, version=cache_version)
                 if cache_root is not None else None)
    recorder = TraceRecorder() if trace else None
    with clock.stage("generate"):
        source = generate_source(seed)
    with clock.stage("check"):
        if recorder is not None:
            with recording(recorder):
                result = check_source(source, configs, seed=seed,
                                      artifacts=artifacts, clock=clock)
        else:
            result = check_source(source, configs, seed=seed,
                                  artifacts=artifacts, clock=clock)
    payload = clock.to_payload(
        cache_hit=artifacts is not None and artifacts.hits > 0)
    if artifacts is not None:
        payload["cache_errors"] = artifacts.errors
        payload["cache_stores"] = artifacts.stores
    if recorder is not None and recorder.events:
        payload["trace"] = recorder.to_payload()
    return result, payload


def run_fuzz(seeds: Sequence[int],
             configs: Optional[Sequence[DiffConfig]] = None,
             budget_s: Optional[float] = None,
             progress: Optional[Callable[[int, SeedResult], None]] = None,
             jobs: int = 1,
             artifacts: Optional[ArtifactCache] = None,
             stats: Optional[SweepStats] = None,
             trace: bool = False,
             recorder: Optional[TraceRecorder] = None) -> FuzzReport:
    """Fuzz a batch of seeds, stopping early when the budget runs out.

    ``jobs > 1`` fans seeds out over worker processes; results are
    consumed in seed order, so the report (and every ``progress`` call)
    is identical to the serial run.  ``artifacts`` enables the on-disk
    cache; ``stats`` collects per-stage timing and hit rates.
    ``trace`` turns on per-seed pipeline tracing: counters aggregate
    into ``stats.trace`` and, when ``recorder`` is given, span events
    merge into it for Chrome-trace export.
    """
    configs = list(configs) if configs is not None else config_lattice()
    report = FuzzReport()
    start = time.time()
    over_budget = (None if budget_s is None
                   else lambda: time.time() - start > budget_s)
    job = functools.partial(
        _seed_job, configs=configs,
        cache_root=artifacts.root if artifacts is not None else None,
        cache_version=artifacts.version if artifacts is not None else None,
        trace=trace or recorder is not None)
    if stats is not None:
        stats.jobs = max(jobs, 1)
    for seed, (result, payload) in run_jobs(job, seeds, jobs=jobs,
                                            stop_when=over_budget):
        report.seeds_run += 1
        if result.skipped is not None:
            report.seeds_skipped += 1
        report.configs_run += result.n_configs
        report.divergences.extend(result.divergences)
        if stats is not None:
            stats.merge_job(payload)
        if recorder is not None:
            recorder.merge_payload(payload.get("trace"))
        if progress is not None:
            progress(seed, result)
    report.elapsed_s = time.time() - start
    if stats is not None:
        stats.wall_s += report.elapsed_s
    return report
