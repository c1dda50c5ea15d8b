"""Content-addressed on-disk artifact cache for compile+simulate jobs.

The in-memory memoization in :class:`repro.harness.ExperimentRunner`
and the difftest stage cache die with the process; every CLI invocation
of a sweep used to redo the whole cross-product from scratch.  This
cache persists finished job results (simulated outcomes and their
statistics — never live ``Program`` objects) across invocations.

Key scheme
----------
An entry's key is ``sha256`` over three components:

* **source text** — the exact program text the job compiles (MFL source
  for difftest seeds, the printed IR for harness workloads), so any
  generator or suite change invalidates precisely the affected entries;
* **pipeline config** — a caller-built descriptor string covering
  everything that influences the result (variant, CCM size, machine
  geometry, optimization flags, lattice shape, verification mode);
* **code version** — a digest of every ``*.py`` file in the ``repro``
  package, so editing *any* compiler/simulator source invalidates the
  whole cache.  Correctness beats reuse: a stale hit after a compiler
  change would silently mask the change under test.

Entries live under ``<root>/objects/<k[:W]>/<k>.pkl``, a git-style
key-prefix fan-out whose width ``W`` (``shard_width``, default 2 = 256
shards) keeps directory listings short even at millions of entries.
``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ccm``;
``clear()`` (or ``rm -rf``) empties it safely.

Concurrent use
--------------
The cache is shared by the worker processes of one sweep and by
concurrent CLI invocations, so every mutation has to be safe against
every other:

* **Writes are write-once-verify.**  A value is written to a temp file
  and published with an atomic ``os.replace`` — readers see the old
  entry, no entry, or the complete new entry, never a torn one.  When
  the destination already exists (two writers racing on one key) the
  incumbent is *verified* and kept: content-addressed keys mean both
  writers hold identical values, so first-publish-wins avoids churning
  an entry another process may be mid-read on; a corrupt incumbent is
  replaced.
* **Reads self-heal.**  A corrupt or truncated entry is treated as a
  miss, deleted, and recounted — never an error surfaced to the sweep.
  A hit refreshes the entry's mtime, which is the LRU clock.
* **Eviction is budgeted and advisory-locked.**  With a size budget
  (``budget_bytes`` or ``$REPRO_CACHE_BUDGET``), :meth:`put`
  opportunistically triggers :meth:`evict`, which removes
  least-recently-used entries until the store fits the budget.  The
  sweep takes a non-blocking ``flock`` on ``<root>/.evict-lock`` so
  concurrent evictors never double-scan; a reader racing an eviction
  sees an ordinary miss and recompiles.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import pickle
import shutil
import tempfile
from typing import Iterable, Iterator, List, Optional, Tuple

from ..trace import trace_counter

_MISS = object()

#: bump to invalidate every cache entry on pickle-layout changes
_FORMAT = "repro-artifact-v1"

#: trigger an eviction sweep after writing this fraction of the budget
#: since the last sweep (amortizes the directory scan over many puts)
_SWEEP_FRACTION = 8


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-ccm")


def default_cache_budget() -> Optional[int]:
    """Size budget in bytes from ``$REPRO_CACHE_BUDGET`` (None = unbounded).

    A malformed value raises ``ValueError`` naming the variable.
    """
    env = os.environ.get("REPRO_CACHE_BUDGET")
    if not env:
        return None
    try:
        return parse_bytes(env)
    except ValueError as exc:
        raise ValueError(f"$REPRO_CACHE_BUDGET: {exc}") from None


def parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``"256M"``).

    Raises ``ValueError`` unless the count is a finite number >= 0.
    """
    number = text.strip()
    scale = 1
    suffixes = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    if number and number[-1].lower() in suffixes:
        scale = suffixes[number[-1].lower()]
        number = number[:-1]
    try:
        value = float(number) * scale
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise ValueError(f"invalid byte count {text!r} "
                         f"(expected e.g. 4096, 512K, 256M or 1G)")
    return int(value)


def _package_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _iter_sources(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of the whole ``repro`` package source (memoized)."""
    global _code_version
    if _code_version is None:
        digest = hashlib.sha256(_FORMAT.encode())
        root = _package_root()
        for path in _iter_sources(root):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
        _code_version = digest.hexdigest()
    return _code_version


@contextlib.contextmanager
def _eviction_lock(root: str) -> Iterator[bool]:
    """Non-blocking advisory lock serializing eviction sweeps on one
    cache root across processes.  Yields False (without the lock) when
    another evictor already holds it — the caller skips its sweep, the
    holder's sweep covers it.  Hosts without ``fcntl`` degrade to
    unlocked sweeps, which are still safe (removal is idempotent), just
    redundantly scanned."""
    try:
        import fcntl
    except ImportError:                      # non-POSIX host
        yield True
        return
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, ".evict-lock"), "w") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class ArtifactCache:
    """Pickle-backed content-addressed store; see the module docstring.

    The cache is safe to share between the worker processes of one
    sweep and between concurrent sweeps: keys are content hashes, so
    two writers racing on one key hold identical bytes and the first
    published entry wins; eviction and reads race benignly (a reader
    mid-eviction sees a miss).
    """

    def __init__(self, root: Optional[str] = None,
                 version: Optional[str] = None,
                 budget_bytes: Optional[int] = None,
                 shard_width: int = 2):
        self.root = root or default_cache_dir()
        if version is None:
            version = code_version()
            # the register-allocator backends produce *different* (but
            # behaviorally equivalent) code, so their artifacts may
            # never share a cache entry
            from ..regalloc import regalloc_engine
            engine = regalloc_engine()
            if engine != "chaitin":
                version = f"{version}+regalloc-{engine}"
        self.version = version
        self.budget_bytes = (budget_bytes if budget_bytes is not None
                             else default_cache_budget())
        self.shard_width = shard_width
        self.hits = 0
        self.misses = 0
        self.errors = 0          # corrupt entries recovered as misses
        self.stores = 0          # entries written by put()
        self.evicted = 0         # entries removed by evict()
        self._stored_since_sweep = 0

    # -- keys -----------------------------------------------------------------

    def key(self, source_text: str, config: str) -> str:
        """Content address of one job: (source, config, code version)."""
        digest = hashlib.sha256()
        for part in (_FORMAT, self.version, config, source_text):
            digest.update(part.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:self.shard_width],
                            key + ".pkl")

    # -- access ---------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, object]:
        """Look one key up; returns ``(hit, value)``."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            trace_counter("artifact.miss", 1)
            return False, None
        except Exception:
            # truncated write, unpicklable garbage, permission change:
            # recover by dropping the entry and recompiling
            self.errors += 1
            self.misses += 1
            trace_counter("artifact.error", 1)
            trace_counter("artifact.miss", 1)
            try:
                os.remove(path)
            except OSError:
                pass
            return False, None
        self.hits += 1
        trace_counter("artifact.hit", 1)
        try:
            os.utime(path)       # refresh the LRU clock for eviction
        except OSError:
            pass                 # entry evicted mid-read; the value stands
        return True, value

    @staticmethod
    def _verify(path: str) -> bool:
        """True when ``path`` holds a complete, loadable entry."""
        try:
            with open(path, "rb") as handle:
                pickle.load(handle)
            return True
        except Exception:
            return False

    def put(self, key: str, value: object) -> None:
        """Publish one entry (write-once-verify; see module docstring).

        Keys are content addresses, so every writer of one key holds
        the same value: when a complete entry already exists it is kept
        (first publish wins, and an entry never changes identity under
        a concurrent reader); only a corrupt incumbent is replaced.
        """
        path = self._path(key)
        if os.path.exists(path) and self._verify(path):
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-" + key[:8])
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            size = os.path.getsize(tmp)
            os.replace(tmp, path)
            self.stores += 1
            trace_counter("artifact.store", 1)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        if self.budget_bytes is not None:
            self._stored_since_sweep += size
            if self._stored_since_sweep >= max(
                    self.budget_bytes // _SWEEP_FRACTION, 1):
                self.evict()

    # -- size budget and eviction ---------------------------------------------

    def _scan(self) -> List[Tuple[int, int, str]]:
        """Every entry as ``(mtime_ns, size, path)``."""
        entries: List[Tuple[int, int, str]] = []
        objects = os.path.join(self.root, "objects")
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue     # evicted or still being renamed in
                entries.append((stat.st_mtime_ns, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._scan())

    def evict(self, budget_bytes: Optional[int] = None) -> int:
        """Remove least-recently-used entries until the store fits the
        budget; returns the number of entries evicted.  A no-op without
        a budget, and when another process is already sweeping."""
        budget = budget_bytes if budget_bytes is not None \
            else self.budget_bytes
        self._stored_since_sweep = 0
        if budget is None:
            return 0
        removed = 0
        with _eviction_lock(self.root) as held:
            if not held:
                return 0
            entries = self._scan()
            total = sum(size for _, size, _ in entries)
            for _mtime, size, path in sorted(entries):
                if total <= budget:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue     # a reader's self-heal beat us to it
                total -= size
                removed += 1
        self.evicted += removed
        if removed:
            trace_counter("artifact.evict", removed)
        return removed

    def stats(self) -> dict:
        """Store-level statistics (the ``repro cache stats`` payload)."""
        entries = self._scan()
        shards = {os.path.basename(os.path.dirname(path))
                  for _, _, path in entries}
        return {
            "root": self.root,
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "shards": len(shards),
            "shard_width": self.shard_width,
            "budget_bytes": self.budget_bytes,
        }

    def clear(self) -> None:
        shutil.rmtree(os.path.join(self.root, "objects"),
                      ignore_errors=True)

    def __len__(self) -> int:
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return 0
        return sum(len([f for f in files if f.endswith(".pkl")])
                   for _, _, files in os.walk(objects))
