"""The structured tracing core: spans, counters, and the recorder.

The whole pipeline is instrumented with two primitives:

* a **span** brackets a unit of work (one optimizer pass, one
  register-allocation run, one simulation) and records its wall-clock
  duration plus arbitrary key/value attributes;
* a **counter** accumulates a named quantity (rewrites applied, spills
  inserted, CCM bytes won, simulated cycles).

Instrumentation sites call the module-level :func:`trace_span` /
:func:`trace_counter` helpers, which consult the *installed* recorder.
When no recorder is installed — the default — both helpers are a single
global read plus an early return, so tracing costs nothing when it is
off (see ``tests/test_trace_zero_cost.py`` for the enforced bound).
Tracing never mutates the traced objects, so traced and untraced
compilations produce bit-identical artifacts.

Workers in a ``-j N`` sweep each install their own recorder and ship
:meth:`TraceRecorder.to_payload` back across the process boundary; the
parent folds the payloads in with :meth:`TraceRecorder.merge_payload`
(events keep their worker's pid, counters sum), so a parallel sweep
aggregates exactly like a serial one.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "TraceRecorder", "current", "install", "recording",
    "trace_span", "trace_counter", "traced_pass", "instruction_count",
]

#: the installed recorder; ``None`` = tracing disabled (the fast path)
_current: Optional["TraceRecorder"] = None


def current() -> Optional["TraceRecorder"]:
    """The installed recorder, or None when tracing is off."""
    return _current


def install(recorder: Optional["TraceRecorder"]) -> Optional["TraceRecorder"]:
    """Install ``recorder`` (None disables tracing); returns the previous
    one so callers can restore it."""
    global _current
    previous = _current
    _current = recorder
    return previous


class recording:
    """Context manager: install a recorder for the duration of a block.

    ::

        rec = TraceRecorder()
        with recording(rec):
            compile_program(prog, machine, "postpass_cg")
        print(rec.counters["regalloc.spilled"])
    """

    def __init__(self, recorder: Optional["TraceRecorder"]):
        self._recorder = recorder
        self._previous: Optional[TraceRecorder] = None

    def __enter__(self) -> Optional["TraceRecorder"]:
        self._previous = install(self._recorder)
        return self._recorder

    def __exit__(self, *exc) -> bool:
        install(self._previous)
        return False


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; closing it appends one complete event."""

    __slots__ = ("_recorder", "_name", "_args", "_start")

    def __init__(self, recorder: "TraceRecorder", name: str, args: dict):
        self._recorder = recorder
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._recorder._complete(self._name, self._start,
                                 time.perf_counter(), self._args)
        return False


def trace_span(name: str, **args):
    """A span context manager on the installed recorder (no-op when
    tracing is off)."""
    recorder = _current
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name, args)


def trace_counter(name: str, value=1) -> None:
    """Add ``value`` to counter ``name`` on the installed recorder
    (no-op when tracing is off)."""
    recorder = _current
    if recorder is not None:
        recorder.counter(name, value)


class TraceRecorder:
    """Collects spans and counters for one traced activity.

    Events are stored as compact tuples ``(name, start_us, dur_us, pid,
    args)`` relative to the recorder's construction time; counters as a
    flat name -> number dict.  Both views merge cleanly across process
    boundaries (see :meth:`to_payload` / :meth:`merge_payload`) and
    export to Chrome ``trace_event`` JSON and a text summary (see
    :mod:`repro.trace.export`).
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.pid = os.getpid()
        self.events: List[tuple] = []
        self.counters: Dict[str, float] = {}
        # one recorder may be fed from many threads; the counter
        # read-modify-write and the event append must not lose updates
        self._lock = threading.Lock()

    # -- the recording API ---------------------------------------------------

    def span(self, name: str, **args) -> _Span:
        return _Span(self, name, args)

    def counter(self, name: str, value=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _complete(self, name: str, start: float, end: float,
                  args: dict) -> None:
        with self._lock:
            self.events.append((name,
                                int((start - self.t0) * 1e6),
                                int((end - start) * 1e6),
                                self.pid, args))

    # -- cross-process merge -------------------------------------------------

    def to_payload(self) -> dict:
        """A plain, picklable dict for the pool-result channel."""
        with self._lock:
            return {"events": list(self.events),
                    "counters": dict(self.counters)}

    def merge_payload(self, payload: Optional[dict]) -> None:
        """Fold a worker's :meth:`to_payload` result into this recorder.

        Worker event timestamps are relative to the *worker's* t0; they
        are kept as-is (the Chrome viewer shows each pid on its own
        track, so only intra-worker ordering matters).
        """
        if not payload:
            return
        with self._lock:
            self.events.extend(tuple(e) for e in payload.get("events", ()))
            for name, value in payload.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value

    # -- aggregate views -----------------------------------------------------

    def span_totals(self) -> Dict[str, tuple]:
        """Per-span-name aggregate: name -> (calls, total_seconds)."""
        totals: Dict[str, List[float]] = {}
        for name, _ts, dur_us, _pid, _args in self.events:
            slot = totals.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += dur_us / 1e6
        return {name: (int(calls), secs)
                for name, (calls, secs) in totals.items()}


def instruction_count(fn) -> int:
    """Total instructions in a function — the tracer's size metric."""
    return sum(len(block.instructions) for block in fn.blocks)


def traced_pass(name: str, prefix: str = "opt"):
    """Decorator for an ``fn(Function) -> int`` rewrite pass.

    When tracing is active, wraps each invocation in a span and records
    two counters per pass: ``<prefix>.rewrites.<name>`` (the pass's own
    reported rewrite count) and ``<prefix>.instr_delta.<name>`` (the
    instruction-count change the tracer measured across the call).  The
    consistency test reconciles the two: a pass reporting zero rewrites
    must not change the instruction count.

    When tracing is off the wrapper is a recorder check plus a direct
    call.
    """
    def decorate(pass_fn):
        def wrapper(fn, *args, **kwargs):
            recorder = _current
            if recorder is None:
                return pass_fn(fn, *args, **kwargs)
            before = instruction_count(fn)
            with recorder.span(f"{prefix}.{name}", fn=fn.name):
                count = pass_fn(fn, *args, **kwargs)
            recorder.counter(f"{prefix}.rewrites.{name}", count)
            recorder.counter(f"{prefix}.instr_delta.{name}",
                             instruction_count(fn) - before)
            return count
        wrapper.__name__ = getattr(pass_fn, "__name__", name)
        wrapper.__doc__ = pass_fn.__doc__
        wrapper.__wrapped__ = pass_fn
        return wrapper
    return decorate
