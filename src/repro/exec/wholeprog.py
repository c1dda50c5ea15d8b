"""Whole-program compilation: SCC-partitioned parallel post-pass CCM
allocation over application-shaped programs.

The paper's interprocedural allocator (section 3.1) walks the call
graph bottom-up: each procedure is promoted against the CCM high-water
marks of its callees.  At 59 routines that walk is a loop; at 10,000 it
is the whole problem.  This driver makes the walk itself parallel and
the working set flat:

* **SCC condensation first.**  The declared call edges are condensed
  with :func:`repro.analysis.tarjan_sccs` *before any function is
  built*.  Within one SCC every member sees the conservative whole-CCM
  mark for its in-SCC callees (exactly the monolithic walk's behaviour —
  an unprocessed callee defaults to ``ccm_bytes``, and a processed
  cycle member records ``ccm_bytes``), so all members of an SCC are
  independent jobs; across SCCs, callee-before-caller dependencies are
  the only ordering.  High-water marks flow caller-ward as futures
  resolve — there is no global barrier, only the data dependencies.

* **Unit compilation.**  Every application routine has the uniform
  ``(n: int): float`` signature, so one routine compiles alone in a
  unit of globals + callee stubs (:meth:`Application.unit_source`).
  Each pipeline stage after parsing is per-function, so the unit
  compile is bit-identical to compiling the routine inside the
  monolithic program — the property the fuzz equivalence suite pins
  against :func:`repro.ccm.promote_spills_postpass`.

* **Content-addressed coalescing and caching.**  A job's identity is
  ``(name-normalized unit source, machine config, direct-callee
  high-water signature)``.  The callee signature *is* the transitive
  one: a callee's reported mark already folds in its whole subtree.
  Routines instantiated from one template (clone families) with equal
  callee marks share one in-run compile — many-routines-one-compile
  falls out of the key — and the same key addresses the persistent
  :class:`~repro.exec.ArtifactCache`, so a warm re-run compiles nothing.

* **Streaming aggregation.**  Workers return compact outcome records,
  never ``Program`` objects; the parent folds each record into
  fixed-size accumulators (histograms, totals, an order-independent
  XOR-of-SHA256 content signature) and optionally a JSONL stream, so
  peak RSS does not grow with routine count.  ``keep_routines=True``
  retains per-routine rows for the equivalence tests.

:func:`monolithic_report` is the independent check: it compiles the
whole application as one ``Program`` through the serial bottom-up walk
of :func:`repro.ccm.promote_spills_postpass`, and the equivalence tests
hold the engine bit-identical to it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..analysis import tarjan_sccs
from ..machine import MachineConfig
from ..trace import trace_counter, trace_span
from .artifacts import ArtifactCache
from .pool import JobPool
from .stats import StageClock, StageStat, SweepStats

__all__ = [
    "SccSchedule", "WholeProgramReport", "compile_whole_program",
    "monolithic_report", "cli_main",
]


# -- SCC condensation and wave schedule ----------------------------------------

@dataclass
class SccSchedule:
    """Condensed call graph: components, dependency counts, waves.

    Everything here derives from :func:`tarjan_sccs` over sorted
    adjacency, so numbering and wave assignment are independent of
    ``PYTHONHASHSEED`` and dict order — pinned by the cross-process
    determinism test.
    """

    components: List[List[str]]            # bottom-up (callees first)
    scc_of: Dict[str, int]
    #: distinct callee components per component (dependency count)
    deps: List[int]
    #: caller components waiting on each component
    dependents: List[List[int]]
    #: wave index: 0 for leaf components, 1 + max(callee waves) above
    waves: List[int]
    recursive: List[bool]

    @property
    def n_waves(self) -> int:
        return max(self.waves) + 1 if self.waves else 0

    @classmethod
    def build(cls, adjacency: Mapping[str, Tuple[str, ...]]
              ) -> "SccSchedule":
        components = tarjan_sccs(adjacency)
        scc_of = {name: i for i, comp in enumerate(components)
                  for name in comp}
        deps = [0] * len(components)
        dependents: List[List[int]] = [[] for _ in components]
        waves = [0] * len(components)
        recursive = [False] * len(components)
        for i, comp in enumerate(components):
            callee_sccs = sorted({
                scc_of[callee]
                for name in comp for callee in adjacency[name]
                if callee in scc_of and scc_of[callee] != i})
            deps[i] = len(callee_sccs)
            for j in callee_sccs:
                dependents[j].append(i)
            # components arrive bottom-up, so callee waves are final
            waves[i] = (1 + max(waves[j] for j in callee_sccs)
                        if callee_sccs else 0)
            recursive[i] = (len(comp) > 1
                            or comp[0] in adjacency.get(comp[0], ()))
        return cls(components, scc_of, deps, dependents, waves, recursive)


# -- the per-routine job -------------------------------------------------------

def _job_config(machine: MachineConfig, hw_items: Tuple[Tuple[str, int], ...]
                ) -> str:
    """Artifact/coalescing config descriptor for one routine job.  The
    callee high-water signature makes the key transitive: each mark
    summarizes that callee's entire subtree."""
    sig = ",".join(f"{name}={hw}" for name, hw in hw_items)
    return f"wholeprog:{machine!r}:hw=[{sig}]"


def _compile_routine(name: str, unit_source: str, callee_hw: Dict[str, int],
                     machine: MachineConfig, clock: StageClock) -> dict:
    """Build, allocate, and promote one routine; return the compact,
    name-independent outcome record."""
    from ..ccm.postpass import promote_function
    from ..frontend import compile_source
    from ..opt import optimize_function
    from ..regalloc import allocate_function, lower_calling_convention

    with clock.stage("build"):
        prog = compile_source(unit_source, name=name)
        fn = prog.functions[name]
    with clock.stage("compile"):
        optimize_function(fn)
        lower_calling_convention(fn, machine)
        allocate_function(fn, machine)
    with clock.stage("promote"):
        promotion = promote_function(fn, machine.ccm_bytes,
                                     callee_high_water=callee_hw)
    sizes = {web.web_id: web.size for web in promotion.promoted}
    return {
        "n_webs": promotion.n_webs,
        "placed": tuple(sorted((wid, off, sizes[wid])
                               for wid, off in promotion.offsets.items())),
        "n_heavyweight": len(promotion.heavyweight),
        "heavyweight_bytes": sum(w.size for w in promotion.heavyweight),
        "own_high_water": promotion.high_water,
        "frame_size": fn.frame_size,
        "code_size": sum(len(b.instructions) for b in fn.blocks),
    }


def _routine_job(name: str, unit_source: str, normalized_source: str,
                 hw_items: Tuple[Tuple[str, int], ...],
                 machine: MachineConfig, cache_root: Optional[str],
                 cache_version: Optional[str]) -> Tuple[dict, dict]:
    """One pool job (module-level, so it pickles): compile + promote one
    routine, through the artifact cache when one is configured."""
    clock = StageClock()
    artifacts = (ArtifactCache(cache_root, version=cache_version)
                 if cache_root is not None else None)
    key = None
    if artifacts is not None:
        key = artifacts.key(normalized_source, _job_config(machine, hw_items))
        hit, cached = artifacts.get(key)
        if hit:
            payload = clock.to_payload(cache_hit=True)
            payload["cache_errors"] = artifacts.errors
            payload["cache_stores"] = artifacts.stores
            return cached, payload
    outcome = _compile_routine(name, unit_source, dict(hw_items), machine,
                               clock)
    if artifacts is not None:
        artifacts.put(key, outcome)
    payload = clock.to_payload(cache_hit=False)
    if artifacts is not None:
        payload["cache_errors"] = artifacts.errors
        payload["cache_stores"] = artifacts.stores
    return outcome, payload


# -- streaming aggregation -----------------------------------------------------

#: own-high-water histogram buckets, as fractions of the CCM
_BUCKETS = ((0.0, "0"), (0.125, "<=1/8"), (0.25, "<=1/4"), (0.5, "<=1/2"),
            (1.0, "<1"))
_FULL = "full"


@dataclass
class WholeProgramReport:
    """Aggregated result of one whole-program compilation.

    Every field is a fixed-size accumulator — folding in routine
    10,000 costs the same memory as routine 10.  ``signature`` is the
    XOR of per-routine SHA256 row digests: order-independent (parallel
    completion order never changes it) and bit-exact (any drift in any
    routine's offsets, marks, or web sets flips it), so two runs can be
    compared for full bit-identity without either retaining rows.
    """

    ccm_bytes: int
    n_routines: int = 0
    n_sccs: int = 0
    n_waves: int = 0
    largest_scc: int = 0
    cycle_members: int = 0
    total_webs: int = 0
    total_promoted: int = 0
    total_heavyweight: int = 0
    promoted_bytes: int = 0
    heavyweight_bytes: int = 0
    own_hw_sum: int = 0
    own_hw_max: int = 0
    reported_hw_sum: int = 0
    conservative_full: int = 0   # cycle members reporting the fallback mark
    genuinely_full: int = 0      # routines whose own webs reach the limit
    stack_overhead_sum: int = 0  # sum(reported - own): callee stacking cost
    hw_histogram: Dict[str, int] = field(default_factory=dict)
    signature: str = "0" * 64
    unique_compiles: int = 0
    coalesced: int = 0
    wall_s: float = 0.0
    #: populated only with ``keep_routines=True`` (equivalence tests)
    routines: Optional[Dict[str, dict]] = None

    @property
    def routines_per_sec(self) -> float:
        return self.n_routines / self.wall_s if self.wall_s else 0.0

    def _bucket(self, own_hw: int) -> str:
        frac = own_hw / self.ccm_bytes if self.ccm_bytes else 0.0
        for limit, label in _BUCKETS:
            if frac <= limit:
                return label
        return _FULL

    def add_routine(self, name: str, row: dict) -> None:
        self.n_routines += 1
        self.total_webs += row["n_webs"]
        self.total_promoted += len(row["placed"])
        self.total_heavyweight += row["n_heavyweight"]
        self.promoted_bytes += sum(size for _, _, size in row["placed"])
        self.heavyweight_bytes += row["heavyweight_bytes"]
        own = row["own_high_water"]
        reported = row["reported_high_water"]
        self.own_hw_sum += own
        self.own_hw_max = max(self.own_hw_max, own)
        self.reported_hw_sum += reported
        self.stack_overhead_sum += reported - own
        if row["recursive"]:
            self.cycle_members += 1
            if reported > own:
                self.conservative_full += 1
        if self.ccm_bytes and own >= self.ccm_bytes:
            # with no CCM nothing is full, whatever the (zero) marks
            self.genuinely_full += 1
        bucket = self._bucket(own)
        self.hw_histogram[bucket] = self.hw_histogram.get(bucket, 0) + 1
        digest = hashlib.sha256(
            json.dumps({"name": name, **row}, sort_keys=True).encode()
        ).hexdigest()
        self.signature = format(int(self.signature, 16) ^ int(digest, 16),
                                "064x")
        if self.routines is not None:
            self.routines[name] = row

    def to_json(self) -> dict:
        payload = {
            "ccm_bytes": self.ccm_bytes,
            "n_routines": self.n_routines,
            "n_sccs": self.n_sccs,
            "n_waves": self.n_waves,
            "largest_scc": self.largest_scc,
            "cycle_members": self.cycle_members,
            "webs": {"total": self.total_webs,
                     "promoted": self.total_promoted,
                     "heavyweight": self.total_heavyweight},
            "bytes": {"promoted": self.promoted_bytes,
                      "heavyweight": self.heavyweight_bytes},
            "own_high_water": {
                "sum": self.own_hw_sum, "max": self.own_hw_max,
                "mean": round(self.own_hw_sum / max(self.n_routines, 1), 2),
                "histogram": {label: self.hw_histogram.get(label, 0)
                              for _, label in _BUCKETS},
            },
            "reported_high_water": {
                "sum": self.reported_hw_sum,
                "stack_overhead_sum": self.stack_overhead_sum,
                "conservative_full": self.conservative_full,
                "genuinely_full": self.genuinely_full,
            },
            "signature": self.signature,
            "unique_compiles": self.unique_compiles,
            "coalesced": self.coalesced,
            "wall_s": round(self.wall_s, 3),
            "routines_per_sec": round(self.routines_per_sec, 2),
        }
        payload["own_high_water"]["histogram"][_FULL] = \
            self.hw_histogram.get(_FULL, 0)
        return payload

    def format(self) -> str:
        j = self.to_json()
        lines = [
            f"Whole-program CCM packing ({self.ccm_bytes}B CCM, "
            f"{self.n_routines} routines, {self.n_sccs} SCCs, "
            f"{self.n_waves} waves, largest SCC {self.largest_scc})",
            f"  spill webs: {self.total_webs} total, "
            f"{self.total_promoted} promoted "
            f"({self.promoted_bytes}B), {self.total_heavyweight} "
            f"heavyweight ({self.heavyweight_bytes}B left in memory)",
            f"  own high-water: mean {j['own_high_water']['mean']}B, "
            f"max {self.own_hw_max}B",
            "  occupancy histogram: " + ", ".join(
                f"{label}: {count}" for label, count in
                j["own_high_water"]["histogram"].items()),
            f"  full-CCM marks: {self.genuinely_full} genuine, "
            f"{self.conservative_full} conservative (recursion fallback "
            f"over {self.cycle_members} cycle members)",
            f"  caller-ward stacking overhead: "
            f"{self.stack_overhead_sum}B summed over routines",
            f"  compiles: {self.unique_compiles} unique, "
            f"{self.coalesced} coalesced onto them",
            f"  {self.n_routines} routines in {self.wall_s:.2f}s = "
            f"{self.routines_per_sec:.1f} routines/sec",
        ]
        return "\n".join(lines)


# -- the driver ----------------------------------------------------------------

def _coalesce_key(normalized_source: str, config: str) -> str:
    digest = hashlib.sha256()
    digest.update(normalized_source.encode())
    digest.update(b"\x00")
    digest.update(config.encode())
    return digest.hexdigest()


def compile_whole_program(app, machine: MachineConfig, jobs: int = 1,
                          artifacts: Optional[ArtifactCache] = None,
                          stats: Optional[SweepStats] = None,
                          keep_routines: bool = False,
                          stream: Optional[Callable[[str, dict], None]] = None
                          ) -> WholeProgramReport:
    """Compile an :class:`~repro.workloads.appgen.Application` with the
    SCC-wave engine.

    ``stream`` receives ``(name, row)`` for every routine as its SCC
    resolves — rows are not retained unless ``keep_routines=True``.
    """
    start = time.perf_counter()
    stats = stats if stats is not None else SweepStats(jobs=max(jobs, 1))
    stats.jobs = max(stats.jobs, jobs, 1)
    adjacency = app.adjacency()
    with trace_span("wholeprog.schedule"):
        schedule = SccSchedule.build(adjacency)

    report = WholeProgramReport(ccm_bytes=machine.ccm_bytes)
    report.n_sccs = len(schedule.components)
    report.n_waves = schedule.n_waves
    report.largest_scc = max((len(c) for c in schedule.components),
                             default=0)
    if keep_routines:
        report.routines = {}

    ccm = machine.ccm_bytes
    high_water: Dict[str, int] = {}
    remaining_members = [len(c) for c in schedule.components]
    remaining_deps = list(schedule.deps)
    ready = [i for i, d in enumerate(remaining_deps) if d == 0]
    ready.reverse()  # pop() takes the lowest (bottom-up) index first

    memo: Dict[str, dict] = {}         # coalesce key -> outcome
    inflight: Dict[str, Tuple[object, List[str]]] = {}
    outcome_of: Dict[str, dict] = {}   # routines of not-yet-final SCCs

    cache_root = artifacts.root if artifacts is not None else None
    cache_version = artifacts.version if artifacts is not None else None

    # wave attribution: wall clock between wave-completion fronts
    wave_pending: Dict[int, int] = {}
    for i, wave in enumerate(schedule.waves):
        wave_pending[wave] = wave_pending.get(wave, 0) + 1
    last_front = start

    def finish_routine(name: str, outcome: dict) -> None:
        outcome_of[name] = outcome
        scc_id = schedule.scc_of[name]
        remaining_members[scc_id] -= 1
        if remaining_members[scc_id] == 0:
            finish_scc(scc_id)

    def finish_scc(scc_id: int) -> None:
        nonlocal last_front
        comp = schedule.components[scc_id]
        recursive = schedule.recursive[scc_id]
        for name in comp:
            own = outcome_of[name]["own_high_water"]
            nested = max((high_water.get(c, ccm) for c in adjacency[name]),
                         default=0)
            high_water[name] = ccm if recursive else max(own, nested)
        for name in comp:
            row = dict(outcome_of.pop(name))
            row["reported_high_water"] = high_water[name]
            row["recursive"] = recursive
            report.add_routine(name, row)
            if stream is not None:
                stream(name, row)
        wave = schedule.waves[scc_id]
        wave_pending[wave] -= 1
        if wave_pending[wave] == 0:
            now = time.perf_counter()
            stats.stages.setdefault("wave", StageStat()).add(
                now - last_front, 0.0)
            last_front = now
        for caller in schedule.dependents[scc_id]:
            remaining_deps[caller] -= 1
            if remaining_deps[caller] == 0:
                ready.append(caller)

    pool = JobPool(jobs)
    try:
        while ready or inflight:
            # release everything whose callees are resolved
            release = sorted(ready)
            ready.clear()
            for scc_id in release:
                for name in sorted(schedule.components[scc_id]):
                    hw_items = tuple(sorted(
                        (c, high_water.get(c, ccm))
                        for c in set(adjacency[name])))
                    norm = app.normalized_unit_source(name)
                    key = _coalesce_key(norm, _job_config(machine, hw_items))
                    if key in memo:
                        report.coalesced += 1
                        finish_routine(name, memo[key])
                    elif key in inflight:
                        report.coalesced += 1
                        inflight[key][1].append(name)
                    else:
                        future = pool.submit(
                            _routine_job, name, app.unit_source(name), norm,
                            hw_items, machine, cache_root, cache_version)
                        inflight[key] = (future, [name])
                        report.unique_compiles += 1
            if not inflight:
                continue
            done = pool.wait_any(f for f, _ in inflight.values())
            done_ids = {id(f) for f in done}
            for key in [k for k, (f, _) in inflight.items()
                        if id(f) in done_ids]:
                future, members = inflight.pop(key)
                outcome, payload = future.result()
                stats.merge_job(payload)
                memo[key] = outcome
                for name in members:
                    finish_routine(name, outcome)
    finally:
        pool.close()

    report.wall_s = time.perf_counter() - start
    stats.wall_s += report.wall_s
    trace_counter("wholeprog.routines", report.n_routines)
    trace_counter("wholeprog.unique_compiles", report.unique_compiles)
    trace_counter("wholeprog.coalesced", report.coalesced)
    return report


# -- the independent oracle ----------------------------------------------------

def monolithic_report(app, machine: MachineConfig,
                      keep_routines: bool = True) -> WholeProgramReport:
    """Compile the whole application as ONE ``Program`` through the
    established serial bottom-up walk
    (:func:`repro.ccm.promote_spills_postpass`) and shape the result
    like the engine's report.

    The engine's independent oracle, used by the equivalence tests and
    the end-to-end benchmark: it shares no scheduling, coalescing, or
    unit-splitting code with the engine — only the per-function
    pipeline itself.  Small scales only: it builds every function at
    once, which is exactly what the engine exists to avoid.
    """
    from ..ccm import promote_spills_postpass
    from ..frontend import compile_source
    from ..opt import optimize_program
    from ..regalloc import allocate_function, lower_calling_convention

    start = time.perf_counter()
    prog = compile_source(app.whole_source(), name="app")
    optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
        allocate_function(fn, machine)
    promotion_report = promote_spills_postpass(prog, machine,
                                               interprocedural=True)

    adjacency = app.adjacency()
    schedule = SccSchedule.build(adjacency)
    report = WholeProgramReport(ccm_bytes=machine.ccm_bytes)
    report.n_sccs = len(schedule.components)
    report.n_waves = schedule.n_waves
    report.largest_scc = max((len(c) for c in schedule.components),
                             default=0)
    if keep_routines:
        report.routines = {}
    for name in sorted(app.routines):
        promotion = promotion_report.functions[name]
        fn = prog.functions[name]
        sizes = {web.web_id: web.size for web in promotion.promoted}
        row = {
            "n_webs": promotion.n_webs,
            "placed": tuple(sorted(
                (wid, off, sizes[wid])
                for wid, off in promotion.offsets.items())),
            "n_heavyweight": len(promotion.heavyweight),
            "heavyweight_bytes": sum(w.size for w in promotion.heavyweight),
            "own_high_water": promotion.high_water,
            "frame_size": fn.frame_size,
            "code_size": sum(len(b.instructions) for b in fn.blocks),
            "reported_high_water": promotion.reported_high_water,
            "recursive": promotion.recursive,
        }
        report.add_routine(name, row)
    report.unique_compiles = len(app.routines)
    report.wall_s = time.perf_counter() - start
    return report


# -- CLI (``python -m repro harness --whole-program ...``) ---------------------

def cli_main(argv=None) -> int:
    import argparse
    import sys

    from ..machine import PAPER_MACHINE_512
    from ..regalloc.engine import apply_regalloc_engine
    from ..workloads.appgen import AppProfile, generate_application
    from .argtypes import nonnegative_int, positive_int
    from .cache_cli import add_cache_arguments, cache_from_args
    from .pool import default_jobs

    parser = argparse.ArgumentParser(
        prog="ccm-harness --whole-program",
        description="SCC-partitioned whole-program compilation of a "
                    "generated application")
    parser.add_argument("--routines", type=positive_int, default=500,
                        metavar="N",
                        help="routines in the generated application "
                             "(default 500)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--levels", type=int, default=0,
                        help="call-graph depth (default: scale with size)")
    parser.add_argument("--ccm", type=nonnegative_int, default=None,
                        metavar="BYTES",
                        help="CCM size in bytes (default 512)")
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all cores; "
                             "-j 1 is the deterministic serial path)")
    parser.add_argument("--stats", metavar="PATH", nargs="?", const="-",
                        default=None,
                        help="write engine statistics JSON to PATH, or "
                             "stderr when PATH is omitted")
    add_cache_arguments(parser)
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the aggregated report JSON to PATH")
    parser.add_argument("--stream", metavar="PATH", default=None,
                        help="stream one JSON row per routine to PATH "
                             "(JSONL) as SCCs resolve")
    args = parser.parse_args(argv)
    apply_regalloc_engine(parser, None)

    machine = PAPER_MACHINE_512
    if args.ccm is not None:
        from dataclasses import replace
        machine = replace(machine, ccm_bytes=args.ccm)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    artifacts = cache_from_args(args)

    profile = AppProfile(n_routines=args.routines, seed=args.seed,
                         levels=args.levels)
    app = generate_application(profile)

    stats = SweepStats(jobs=jobs)
    stream_handle = open(args.stream, "w") if args.stream else None

    def stream(name: str, row: dict) -> None:
        stream_handle.write(json.dumps({"name": name, **row},
                                       sort_keys=True) + "\n")

    try:
        report = compile_whole_program(
            app, machine, jobs=jobs, artifacts=artifacts, stats=stats,
            stream=stream if stream_handle else None)
    finally:
        if stream_handle is not None:
            stream_handle.close()

    print(report.format())

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_json(), handle, indent=2)
            handle.write("\n")
    if args.stats == "-":
        print(stats.format_json(), file=sys.stderr)
    elif args.stats:
        with open(args.stats, "w") as handle:
            handle.write(stats.format_json() + "\n")
    return 0
