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

Entries live under ``<root>/objects/<k[:2]>/<k>.pkl``, a git-style
key-prefix fan-out that keeps directory listings short.  ``root``
defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-ccm``; ``clear()``
(or ``rm -rf``) empties it safely.

The store has no size budget and never evicts: a sweep writes a few
KiB to a few hundred (a 20-seed difftest about 2 KiB, Table 2 about
106 KiB), so there is nothing worth evicting.  ``clear()`` and
self-healing are the only ways an entry goes away.

What pool workers need
----------------------
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
  A reader racing another process's ``clear()`` sees an ordinary miss
  and recompiles; a writer racing it drops its entry and carries on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from typing import Iterable, List, Optional, Tuple

from ..trace import trace_counter

#: bump to invalidate every cache entry on pickle-layout changes
_FORMAT = "repro-artifact-v1"


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-ccm")


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


class ArtifactCache:
    """Pickle-backed content-addressed store; see the module docstring.

    The cache is safe to share between the worker processes of one
    sweep and between concurrent sweeps: keys are content hashes, so
    two writers racing on one key hold identical bytes and the first
    published entry wins; a reader racing ``clear()`` sees a miss.
    """

    def __init__(self, root: Optional[str] = None,
                 version: Optional[str] = None):
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
        self.hits = 0
        self.misses = 0
        self.errors = 0          # corrupt entries recovered as misses
        self.stores = 0          # entries written by put()

    # -- keys -----------------------------------------------------------------

    def key(self, source_text: str, config: str) -> str:
        """Content address of one job: (source, config, code version)."""
        digest = hashlib.sha256()
        for part in (_FORMAT, self.version, config, source_text):
            digest.update(part.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key + ".pkl")

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
        shard = os.path.dirname(path)
        tmp = None
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, prefix=".tmp-" + key[:8])
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (FileNotFoundError, FileExistsError):
            # another process's clear() removed the shard mid-write,
            # temp file and all (makedirs reports a directory removed
            # under it as existing): the entry goes with it, as if it
            # had been published just before the clear
            return
        except BaseException:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            raise
        self.stores += 1
        trace_counter("artifact.store", 1)

    def _sizes(self) -> List[int]:
        """The size of every published entry."""
        sizes: List[int] = []
        objects = os.path.join(self.root, "objects")
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in filenames:
                if name.endswith(".pkl"):
                    try:
                        sizes.append(os.path.getsize(
                            os.path.join(dirpath, name)))
                    except OSError:
                        continue     # cleared or self-healed mid-scan
        return sizes

    def stats(self) -> dict:
        """Store-level statistics (the ``repro cache stats`` payload)."""
        sizes = self._sizes()
        return {"root": self.root, "entries": len(sizes),
                "total_bytes": sum(sizes)}

    def clear(self) -> None:
        shutil.rmtree(os.path.join(self.root, "objects"),
                      ignore_errors=True)

    def __len__(self) -> int:
        return len(self._sizes())
