"""Batch vs scalar vs interpreter: bit-identity over the fuzz corpus.

Batched simulation (``repro.machine.batch``) promises that every member
of a :class:`BatchSimulation` receives a :class:`RunResult` —
``value``, every ``RunStats`` field including the full
:class:`CacheStats`, and the final global-array contents —
bit-identical to a scalar :class:`Simulator` run of that member (itself
pinned against the reference interpreter in ``sim_oracle.py``).  These tests enforce
the three-way contract against the differential-testing generator's
program distribution:

* member lists mixing pure timing variants, cacheless members, and
  three cache geometries (direct-mapped, 2-way + victim, write-buffer);
* batch sizes {1, 2, 7, full} with shuffled membership, so result
  fan-out cannot depend on how the lattice is chunked or ordered;
* members at several ``ccm_bytes`` limits, which batch optimistically
  under the largest limit and must split (``BatchSplit``) whenever the
  dynamic CCM watermark actually reaches a member's limit;
* trapping seeds, where the shared architectural error must match
  every member's scalar error, message for message — per limit class.

A small seed range runs in tier 1; the ≥200-seed sweep carries the
``fuzz`` marker (deselected by default, run with ``-m fuzz``).  A
cross-process test pins batch *grouping* and batched results against
hostile ``PYTHONHASHSEED`` values: ``batch_key`` hashes the program's
content with sha256 precisely so that worker processes agree on batch
composition, unlike the decode cache's in-process ``hash()``
fingerprint.
"""

import dataclasses
import os
import random
import subprocess
import sys

import pytest

from sim_oracle import simulator

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.machine import (BatchMember, BatchSimulation, BatchSplit,
                           CacheConfig, DataCache, SimulationError)

SMOKE_SEEDS = range(0, 10)
FUZZ_SEEDS = range(0, 220)

BATCH_SIZES = (1, 2, 7, None)   # None = one batch holding every member

#: same complementary lattice points as test_sim_engine_fuzz: the
#: optimized integrated config emits CCM traffic and compacted spill
#: code; the unoptimized post-pass config keeps raw control flow (more
#: trapping divisions survive) on a tiny 64-byte CCM
CONFIGS = (
    DiffConfig("integrated", optimize=True, compaction=True, ccm_bytes=512),
    DiffConfig("postpass", optimize=False, compaction=False, ccm_bytes=64),
)

SMALL_DM = CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                       hit_latency=1, miss_penalty=10)
TWO_WAY_VICTIM = CacheConfig(size_bytes=2048, line_bytes=32, associativity=2,
                             hit_latency=2, miss_penalty=9, victim_entries=4)
WRITE_BUFFER = CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                           hit_latency=1, miss_penalty=10, write_buffer=True)


def _members_for(program, machine):
    """A member list covering every fan-out axis while sharing the
    program's architectural signature with ``machine``."""
    r = dataclasses.replace
    members = [
        BatchMember(machine),
        BatchMember(r(machine, memory_latency=5)),
        BatchMember(r(machine, default_latency=3, ccm_latency=4)),
        BatchMember(machine, SMALL_DM),
        BatchMember(r(machine, memory_latency=7), TWO_WAY_VICTIM),
        BatchMember(machine, WRITE_BUFFER),
        # ccm_bytes variants batch optimistically under the largest
        # limit; the 16-byte member forces a BatchSplit (and its own
        # scalar-identical CCM trap) whenever the program's dynamic
        # CCM watermark reaches 16
        BatchMember(r(machine, ccm_bytes=4096)),
        BatchMember(r(machine, ccm_bytes=16)),
    ]
    return members


def _observe_scalar(program, member, engine):
    """Everything observable about one scalar run, as comparable data."""
    sim = simulator(engine, program, member.machine, fuel=FUEL,
                    poison_caller_saved=True,
                    cache=(DataCache(member.cache)
                           if member.cache is not None else None))
    try:
        run = sim.run()
    except SimulationError as exc:
        return ("error", type(exc).__name__, exc.kind, str(exc),
                sim.globals_snapshot())
    return ("value", run.value, dataclasses.asdict(run.stats),
            sim.globals_snapshot())


def _observe_batch(program, members):
    """One batched pass over ``members``; per-member observations, or
    the one shared error observation when the program traps.  A
    :class:`BatchSplit` re-dispatches each limit class as its own
    strict batch, exactly like the sweep runner."""
    batch = BatchSimulation(program, members, fuel=FUEL,
                            poison_caller_saved=True)
    try:
        runs = batch.run()
    except BatchSplit as split:
        observed = [None] * len(members)
        for sub in split.groups:
            obs = _observe_batch(program, [members[j] for j in sub])
            if obs[0] == "error":
                for j in sub:
                    observed[j] = obs
            else:
                for j, per_member in zip(sub, obs[1]):
                    observed[j] = per_member
        return ("value-list", observed)
    except SimulationError as exc:
        return ("error", type(exc).__name__, exc.kind, str(exc),
                batch.globals_snapshot())
    shared_globals = batch.globals_snapshot()
    return ("value-list",
            [("value", run.value, dataclasses.asdict(run.stats),
              shared_globals) for run in runs])


def _check_seed(seed: int, rng: random.Random) -> int:
    """Three-way compare on one seed; count trapping executions."""
    traps = 0
    source = generate_source(seed)
    for config in CONFIGS:
        program, machine = compile_config(compile_source(source), config)
        members = _members_for(program, machine)
        scalar = [_observe_scalar(program, m, "scalar") for m in members]
        interp = [_observe_scalar(program, m, "interp") for m in members]
        assert scalar == interp, (
            f"seed {seed} config {config.name}: scalar != interp")
        for size in BATCH_SIZES:
            order = list(range(len(members)))
            if size is None:
                size = len(members)
            else:
                rng.shuffle(order)
            observed = [None] * len(members)
            for start in range(0, len(order), size):
                chunk = order[start:start + size]
                obs = _observe_batch(program, [members[i] for i in chunk])
                if obs[0] == "error":
                    for i in chunk:
                        observed[i] = obs
                else:
                    for i, per_member in zip(chunk, obs[1]):
                        observed[i] = per_member
            for i in range(len(members)):
                assert observed[i] == scalar[i], (
                    f"seed {seed} config {config.name} member {i} "
                    f"batch-size {size}:\n"
                    f"  batch:  {observed[i]!r}\n"
                    f"  scalar: {scalar[i]!r}")
        if scalar[0][0] == "error":
            traps += 1
    return traps


class TestBatchEquivalenceSmoke:
    def test_small_seed_range(self):
        rng = random.Random(0xCC1998)
        for seed in SMOKE_SEEDS:
            _check_seed(seed, rng)


@pytest.mark.fuzz
def test_batch_equivalence_over_fuzz_corpus():
    rng = random.Random(0xCC1998)
    traps = sum(_check_seed(seed, rng) for seed in FUZZ_SEEDS)
    # the shared-trap fan-out path must actually be exercised: the
    # generator emits unguarded divisions, so a corpus this size always
    # contains trapping seeds
    assert traps > 0, "no trapping seed in the corpus; traps untested"


_RESULT_SNIPPET = r"""
import dataclasses
import hashlib

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, compile_config, config_lattice
from repro.frontend import compile_source
from repro.machine import (BatchMember, BatchSimulation, BatchSplit,
                           SimulationError, batch_key, group_batches)

digest = hashlib.sha256()
configs = config_lattice((0, 64))
for seed in range(2):
    source = generate_source(seed)
    compiled = [compile_config(compile_source(source), config)
                for config in configs]
    keys = [batch_key(program, machine) for program, machine in compiled]
    groups = group_batches(keys)
    digest.update(repr(keys).encode())
    digest.update(repr(groups).encode())
    pending = list(groups)
    while pending:
        group = pending.pop()
        program = compiled[group[0]][0]
        batch = BatchSimulation(
            program, [BatchMember(compiled[i][1]) for i in group],
            fuel=FUEL, poison_caller_saved=True)
        try:
            runs = batch.run()
        except BatchSplit as split:
            subs = [[group[j] for j in sub] for sub in split.groups]
            digest.update(repr(("split", subs)).encode())
            pending.extend(subs)
            continue
        except SimulationError as exc:
            digest.update(repr(
                (group, type(exc).__name__, exc.kind, str(exc))).encode())
        else:
            for run in runs:
                digest.update(repr(
                    (run.value, dataclasses.asdict(run.stats))).encode())
        digest.update(repr(
            sorted(batch.globals_snapshot().items())).encode())
print(digest.hexdigest())
"""


def _result_digest(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH", "")] if p)
    out = subprocess.run([sys.executable, "-c", _RESULT_SNIPPET], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestCrossProcessDeterminism:
    def test_batch_grouping_survives_hash_randomization(self):
        # batch composition is part of the execution plan: if grouping
        # (or any batched result) depended on PYTHONHASHSEED, parallel
        # sweep workers would build different batches than the serial
        # path — batch_key uses a sha256 content fingerprint so the whole
        # plan and its results are hash-seed independent
        assert _result_digest("1") == _result_digest("31337")
