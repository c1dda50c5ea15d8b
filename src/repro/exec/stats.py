"""Per-stage timing and cache accounting for sweep runs.

Workers time each pipeline stage (build, compile, simulate, ...) with a
:class:`StageClock` and ship the measurements back with their results;
the parent merges everything into one :class:`SweepStats`, which the
CLIs serialize as ``--stats`` JSON.  Keeping wall *and* CPU time per
stage makes two different regressions visible:

* a stage whose CPU time grows is a compiler perf regression;
* a sweep whose wall time grows while CPU holds is an engine problem
  (pool contention, cache stampede, pickling overhead).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StageStat:
    """Accumulated cost of one pipeline stage across all jobs."""

    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def add(self, wall_s: float, cpu_s: float, calls: int = 1) -> None:
        self.calls += calls
        self.wall_s += wall_s
        self.cpu_s += cpu_s

    def to_json(self) -> dict:
        return {"calls": self.calls,
                "wall_s": round(self.wall_s, 6),
                "cpu_s": round(self.cpu_s, 6)}


class StageClock:
    """Collects per-stage timings inside one job.

    Usage::

        clock = StageClock()
        with clock.stage("compile"):
            ...
        jobstats = clock.to_payload(cache_hit=False)

    The payload is a plain dict so it pickles cheaply across the
    process-pool boundary.
    """

    def __init__(self):
        self.stages: Dict[str, StageStat] = {}

    def stage(self, name: str) -> "_StageTimer":
        return _StageTimer(self, name)

    def add(self, name: str, wall_s: float, cpu_s: float) -> None:
        self.stages.setdefault(name, StageStat()).add(wall_s, cpu_s)

    def to_payload(self, cache_hit: bool = False) -> dict:
        return {"cache_hit": cache_hit,
                "stages": {name: (s.calls, s.wall_s, s.cpu_s)
                           for name, s in self.stages.items()}}


class _StageTimer:
    def __init__(self, clock: StageClock, name: str):
        self._clock = clock
        self._name = name

    def __enter__(self):
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self._clock.add(self._name,
                        time.perf_counter() - self._wall,
                        time.process_time() - self._cpu)
        return False


@dataclass
class SweepStats:
    """Whole-sweep metrics: jobs, artifact-cache hit rate, stage costs."""

    jobs: int = 1
    jobs_total: int = 0          # jobs the sweep asked for
    jobs_executed: int = 0       # jobs that actually compiled+simulated
    cache_hits: int = 0          # jobs served from the artifact cache
    cache_errors: int = 0        # corrupt/unreadable entries recovered
    cache_stores: int = 0        # artifact-cache entries written
    wall_s: float = 0.0          # whole-sweep wall clock (parent)
    stages: Dict[str, StageStat] = field(default_factory=dict)
    #: trace counters summed across every traced job (``--trace``); a
    #: ``-j N`` sweep aggregates to the same totals as a serial one
    trace: Dict[str, float] = field(default_factory=dict)

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.jobs_executed

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def merge_job(self, payload: dict) -> None:
        """Fold one worker's :meth:`StageClock.to_payload` result in."""
        self.jobs_total += 1
        if payload.get("cache_hit"):
            self.cache_hits += 1
        else:
            self.jobs_executed += 1
        self.cache_errors += payload.get("cache_errors", 0)
        self.cache_stores += payload.get("cache_stores", 0)
        for name, (calls, wall_s, cpu_s) in payload.get("stages", {}).items():
            self.stages.setdefault(name, StageStat()).add(wall_s, cpu_s,
                                                          calls)
        trace_payload = payload.get("trace")
        if trace_payload:
            for name, value in trace_payload.get("counters", {}).items():
                self.trace[name] = self.trace.get(name, 0) + value

    def rolled_stages(self) -> Dict[str, StageStat]:
        """Stages plus parent roll-ups for dotted sub-stage names.

        A stage's parts carry a dotted suffix — the difftest runner
        records ``execute.batch`` (shared lattice passes) and
        ``execute.scalar`` (per-member fallback runs) next to plain
        ``execute`` (the reference run).  Rolling sub-stages up into
        their parent makes ``stages.execute`` the whole simulation
        time in ``--stats`` output, while the sub-stage entries
        preserve the attribution.
        """
        merged: Dict[str, StageStat] = {
            name: StageStat(stat.calls, stat.wall_s, stat.cpu_s)
            for name, stat in self.stages.items()}
        for name, stat in self.stages.items():
            parent = name.split(".", 1)[0]
            if parent == name:
                continue
            agg = merged.setdefault(parent, StageStat())
            agg.add(stat.wall_s, stat.cpu_s, stat.calls)
        return merged

    def to_json(self) -> dict:
        payload = {
            "jobs": self.jobs,
            "jobs_total": self.jobs_total,
            "jobs_executed": self.jobs_executed,
            "artifact_cache": {
                "hits": self.cache_hits,
                "misses": self.jobs_executed,
                "errors": self.cache_errors,
                "stores": self.cache_stores,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
            "wall_s": round(self.wall_s, 3),
            "stages": {name: stat.to_json()
                       for name, stat in sorted(self.rolled_stages().items())},
        }
        if self.trace:
            payload["trace"] = {
                name: (int(v) if float(v).is_integer() else v)
                for name, v in sorted(self.trace.items())}
        return payload

    def format_json(self) -> str:
        return json.dumps(self.to_json(), indent=2)
