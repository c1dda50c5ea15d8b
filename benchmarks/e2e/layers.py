"""Per-layer timing from outside the program.

The benchmark times each layer by wrapping that layer's public
functions.  It does not edit the code under ``src/``.  A wrapper is
installed by rebinding every alias of the function object in the loaded
``repro.*`` modules, found by identity.  Methods are wrapped on their
class.  Modules imported later pick up the wrapper, because they import
the name from a module that is already rebound.

Each call records a span: name, start, duration, the span that caused
it and the benchmark item it belongs to.  A function's *self* time is
its span's duration minus the time of the wrapped spans nested in it.
The sum of all self times is the part of the wall clock that the layers
account for; the rest is reported as ``unattributed_s``.

One :class:`Tracer` serves one thread: the workloads run with ``-j 1``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

#: (module, qualified name) of every wrapped layer function; the metric
#: prefix is the module path without ``repro.`` plus the qualified name
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.frontend", "compile_source"),
    ("repro.opt", "optimize_program"),
    ("repro.opt", "optimize_function"),
    ("repro.regalloc", "lower_calling_convention"),
    ("repro.regalloc", "allocate_function"),
    ("repro.regalloc", "build_interference_graph"),
    ("repro.regalloc", "compute_spill_costs"),
    ("repro.ccm", "allocate_function_integrated"),
    ("repro.ccm", "promote_spills_postpass"),
    ("repro.ccm", "promote_function"),
    ("repro.ccm", "compact_spill_memory"),
    ("repro.ir", "verify_program"),
    ("repro.ir", "Program.clone"),
    ("repro.ir", "format_program"),
    ("repro.machine", "Simulator.run"),
    ("repro.machine", "BatchSimulation.run"),
    ("repro.exec", "ArtifactCache.key"),
    ("repro.exec", "ArtifactCache.get"),
    ("repro.exec", "ArtifactCache.put"),
    ("repro.difftest", "generate_source"),
    ("repro.workloads", "build_routine"),
    ("repro.workloads", "generate_application"),
)

#: the wrapped function whose ``(hit, value)`` result gives the hit ratio
CACHE_GET = "exec.ArtifactCache.get"


def layer_name(module: str, qualname: str) -> str:
    return f"{module[len('repro.'):]}.{qualname}"


LAYER_NAMES: Tuple[str, ...] = tuple(layer_name(m, q)
                                     for m, q in LAYER_TARGETS)


class Tracer:
    """Call counts, self time and (optionally) spans of wrapped calls."""

    def __init__(self, keep_spans: bool = False):
        #: layer name -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {name: [0, 0.0]
                                              for name in LAYER_NAMES}
        self.cache_hits = 0
        #: (id, parent id, name, category, item, start, duration)
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        self._stack: List[list] = []     # [span id, start, child seconds]
        self._next_id = 0
        self._item = ""

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, category: str) -> float:
        """Close ``frame``; returns its self time."""
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        if self.spans is not None:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], parent, name, category, self._item,
                               frame[1], duration))
        return duration - frame[2]

    def call(self, name: str, fn: Callable, args, kwargs):
        frame = self._enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += self._leave(frame, name, "layer")
        if name == CACHE_GET and result[0]:
            self.cache_hits += 1
        return result

    @contextlib.contextmanager
    def item(self, label: str) -> Iterator[None]:
        """A benchmark item: the root span its layer calls nest under."""
        previous, self._item = self._item, label
        frame = self._enter()
        try:
            yield
        finally:
            self._leave(frame, "item", "item")
            self._item = previous

    def merge(self, payload: dict) -> None:
        """Fold in the payload of a traced request process."""
        for name, (calls, self_s) in payload["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += self_s
        self.cache_hits += payload["cache_hits"]

    def payload(self) -> dict:
        return {"stats": self.stats, "cache_hits": self.cache_hits}


def chrome_events(spans: Iterable[tuple], pid: int) -> List[dict]:
    """Chrome ``trace_event`` complete events for one process's spans.
    ``args`` carries the span id, its parent and the item id, so self
    time can be recomputed from the file."""
    return [{"name": name, "cat": category, "ph": "X", "pid": pid,
             "tid": pid, "ts": start * 1e6, "dur": duration * 1e6,
             "args": {"id": span_id, "parent": parent, "item": item}}
            for span_id, parent, name, category, item, start, duration
            in spans]


def write_chrome_trace(events: List[dict], path: str) -> None:
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- installing the wrappers ---------------------------------------------------

def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(module_name: str, qualname: str) -> Tuple[object, str, object]:
    """(owner, attribute, function) of one target; raises LookupError
    when the module, class or function is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{module_name}: cannot import ({exc})") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{qualname}: {part} is missing")
    if isinstance(owner, type):
        fn = vars(owner).get(attr)     # not inherited: wrap where defined
    else:
        fn = getattr(owner, attr, None)
    if not callable(fn):
        raise LookupError(f"{module_name}.{qualname}: no such function")
    return owner, attr, fn


class Installation:
    """Wrappers installed for one tracer; :meth:`uninstall` restores."""

    def __init__(self):
        self._wrappers: List[Tuple[object, object]] = []   # (wrapper, fn)
        self._classes: List[Tuple[type, str, object]] = []

    def uninstall(self) -> None:
        originals = {id(w): fn for w, fn in self._wrappers}
        for module in _repro_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in originals:
                    namespace[attr] = originals[id(value)]
        for cls, attr, fn in self._classes:
            setattr(cls, attr, fn)
        self._wrappers.clear()
        self._classes.clear()


def _wrapper(fn: Callable, call: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(fn, args, kwargs)
    return traced


def install(tracer: Tracer,
            targets: Sequence[Tuple[str, str]] = LAYER_TARGETS,
            items: Sequence[Tuple[str, str]] = ()) -> Installation:
    """Wrap every target for ``tracer``.

    ``items`` names functions of the program that run one benchmark
    item each (the whole-program driver compiles each routine in one
    such call); they open an item span labelled by their first
    argument instead of counting as a layer.

    Raises LookupError when a target is missing, or when a module-level
    target is bound in no loaded ``repro`` module (rebinding could not
    reach its callers).  Nothing stays installed after an error.
    """
    resolved = []
    for module_name, qualname in (*targets, *items):
        owner, attr, fn = _resolve(module_name, qualname)
        if isinstance(owner, type):
            sites = []                   # methods are rebound on the class
        else:
            sites = [(vars(m), a) for m in _repro_modules()
                     for a, v in list(vars(m).items()) if v is fn]
            if not sites:
                raise LookupError(f"{module_name}.{qualname}: bound in no "
                                  f"loaded repro module")
        resolved.append((module_name, qualname, owner, attr, fn, sites))

    installation = Installation()
    layer_targets = set(targets)
    for module_name, qualname, owner, attr, fn, sites in resolved:
        if (module_name, qualname) in layer_targets:
            call = functools.partial(tracer.call,
                                     layer_name(module_name, qualname))
        else:
            call = functools.partial(_call_item, tracer)
        wrapper = _wrapper(fn, call)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            installation._classes.append((owner, attr, fn))
        else:
            for namespace, alias in sites:
                namespace[alias] = wrapper
            installation._wrappers.append((wrapper, fn))
    return installation


def _call_item(tracer: Tracer, fn, args, kwargs):
    with tracer.item(str(args[0])):
        return fn(*args, **kwargs)


def self_times_from_chrome(events: List[dict]) -> Dict[str, float]:
    """Recompute each layer's self seconds from Chrome trace events."""
    child: Dict[Tuple[int, int], float] = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent is not None:
            key = (event["pid"], parent)
            child[key] = child.get(key, 0.0) + event["dur"]
    totals: Dict[str, float] = {}
    for event in events:
        if event["cat"] != "layer":
            continue
        own = event["dur"] - child.get((event["pid"], event["args"]["id"]),
                                       0.0)
        totals[event["name"]] = totals.get(event["name"], 0.0) + own / 1e6
    return totals
