"""Concurrency stress for the artifact store and pool teardown.

The cache's multi-writer story (write-once-verify publication, atomic
renames, self-healing reads) is exercised here with real processes
racing on one directory:

* two writers hammering the same keys must never produce a torn or
  wrong entry, and first-publish-wins must hold;
* a reader racing churning writers and a concurrent ``clear()`` (what
  another sweep's ``--clear-cache`` does) must only ever observe a
  clean miss or the correct value — never an exception, never garbage.

The :class:`~repro.exec.JobPool` bounded-shutdown contract rides along:
``close()`` must reap every worker within its drain window, clean or
not, so a Ctrl-C'd or SIGTERM'd sweep cannot orphan processes.
"""

import multiprocessing
import time

import pytest

from repro.exec import ArtifactCache, JobPool

KEYS = [f"{i:02x}" * 32 for i in range(8)]       # 8 distinct 64-hex keys


def _value_for(key):
    """The one true value of a content-addressed key (deterministic, a
    few hundred bytes)."""
    return {"key": key, "payload": key * 8, "rows": list(range(32))}


# -- module-level workers (must pickle / re-import under multiprocessing) -----


def _writer_proc(root, keys, rounds, barrier):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    for _ in range(rounds):
        for key in keys:
            cache.put(key, _value_for(key))


def _clearer_proc(root, stop_after_s, barrier):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    deadline = time.monotonic() + stop_after_s
    while time.monotonic() < deadline:
        cache.clear()


def _churn_writer_proc(root, keys, stop_after_s, barrier):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    deadline = time.monotonic() + stop_after_s
    while time.monotonic() < deadline:
        for key in keys:
            cache.put(key, _value_for(key))


def _reader_proc(root, keys, stop_after_s, barrier, failures):
    cache = ArtifactCache(root, version="stress")
    barrier.wait()
    deadline = time.monotonic() + stop_after_s
    while time.monotonic() < deadline:
        for key in keys:
            try:
                hit, value = cache.get(key)
            except Exception as exc:  # noqa: BLE001 - the test's verdict
                failures.put(f"get({key[:8]}) raised {exc!r}")
                return
            if hit and value != _value_for(key):
                failures.put(f"get({key[:8]}) returned a wrong value")
                return
    # torn entries would surface as recovered corruption; atomic
    # publication means there must be none
    if cache.errors:
        failures.put(f"reader recovered {cache.errors} corrupt entries")


def _run(procs, timeout=60):
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout)
        assert not p.is_alive(), "stress worker wedged"
        assert p.exitcode == 0


@pytest.fixture
def mp():
    try:
        ctx = multiprocessing.get_context("fork")
        # probe that primitives actually work on this host
        ctx.Barrier(1)
    except (ValueError, OSError):
        pytest.skip("host lacks working multiprocessing primitives")
    return ctx


class TestConcurrentWriters:
    def test_racing_writers_one_key_never_corrupt(self, tmp_path, mp):
        root = str(tmp_path / "cache")
        barrier = mp.Barrier(2)
        _run([mp.Process(target=_writer_proc,
                         args=(root, KEYS[:1], 50, barrier))
              for _ in range(2)])
        cache = ArtifactCache(root, version="stress")
        hit, value = cache.get(KEYS[0])
        assert hit and value == _value_for(KEYS[0])
        assert cache.errors == 0

    def test_first_publish_wins_under_contention(self, tmp_path, mp):
        root = str(tmp_path / "cache")
        barrier = mp.Barrier(3)
        _run([mp.Process(target=_writer_proc,
                         args=(root, KEYS, 20, barrier))
              for _ in range(3)])
        cache = ArtifactCache(root, version="stress")
        assert len(cache) == len(KEYS)
        for key in KEYS:
            hit, value = cache.get(key)
            assert hit and value == _value_for(key)
        assert cache.errors == 0

    def test_reader_mid_clear_sees_miss_or_value(self, tmp_path, mp):
        """The acceptance scenario: writers churn entries, another
        process clears the store over and over, and a reader must only
        ever see clean misses or correct values; no writer fails."""
        root = str(tmp_path / "cache")
        seconds = 2.0
        failures = mp.Queue()
        barrier = mp.Barrier(4)
        _run([
            *(mp.Process(target=_churn_writer_proc,
                         args=(root, KEYS, seconds, barrier))
              for _ in range(2)),
            mp.Process(target=_clearer_proc,
                       args=(root, seconds, barrier)),
            mp.Process(target=_reader_proc,
                       args=(root, KEYS, seconds, barrier, failures)),
        ])
        assert failures.empty(), failures.get()


# -- JobPool bounded teardown --------------------------------------------------


def _sleep_job(seconds):
    time.sleep(seconds)
    return seconds


def _quick_job(n):
    return n + 1


class TestJobPoolClose:
    def test_clean_close_returns_true(self, mp):
        pool = JobPool(jobs=2)
        if pool.serial:
            pytest.skip("no process pool on this host")
        futures = [pool.submit(_quick_job, n) for n in range(4)]
        assert [f.result() for f in futures] == [1, 2, 3, 4]
        assert pool.close() is True

    def test_close_is_idempotent(self):
        pool = JobPool(jobs=2)
        assert pool.close() in (True, False)
        assert pool.close() is True

    def test_close_bounds_teardown_with_stuck_jobs(self, mp):
        pool = JobPool(jobs=2)
        if pool.serial:
            pytest.skip("no process pool on this host")
        pool.submit(_sleep_job, 60)
        time.sleep(0.3)               # let the worker actually start it
        start = time.monotonic()
        clean = pool.close(timeout=0.5)
        elapsed = time.monotonic() - start
        assert clean is False         # the sleeper had to be terminated
        assert elapsed < 10           # bounded, nowhere near the 60s job

    def test_submit_after_close_degrades_to_inline(self):
        pool = JobPool(jobs=2)
        pool.close()
        assert pool.submit(_quick_job, 1).result() == 2

    def test_serial_pool_close_is_trivial(self):
        pool = JobPool(jobs=1)
        assert pool.submit(_quick_job, 1).result() == 2
        assert pool.close() is True
