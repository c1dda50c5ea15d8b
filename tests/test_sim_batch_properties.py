"""Algebraic properties of the batched simulation engine.

Where ``test_sim_batch_fuzz.py`` pins batched simulation against
scalar runs over the generator's program distribution, these tests pin
the *structural* contracts directly:

* a batch of one is the scalar :class:`Simulator` run, ``RunResult``
  for ``RunResult``;
* per-member results are invariant under batch-membership permutation;
* ``cycles == op_cycles + memory_cycles`` holds for every member (the accounting fan-out cannot double-count or drop);
* architectural-signature mismatches are rejected up front, while
  ``ccm_bytes`` batches *optimistically*: one pass under the largest
  limit, validated against the dynamic CCM watermark, with
  :class:`BatchSplit` partitioning the members by limit class when the
  limits actually diverge;
* :class:`BatchedCaches` matches N independent :class:`DataCache`
  instances stat-for-stat and latency-for-latency over random address
  streams, and cacheless members accrue nothing;
* grouping (``group_batches`` / ``batch_key``) is insertion-ordered
  and content-based.
"""

import dataclasses
import random

import pytest

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.ir import parse_program
from repro.ir.printer import format_program
from repro.machine import (BatchMember, BatchSimulation, BatchSplit,
                           BatchedCaches, CacheConfig, DataCache,
                           SimulationError, Simulator, batch_key,
                           group_batches, program_fingerprint,
                           program_uses_ccm)

CACHE_GEOMETRIES = (
    CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                hit_latency=1, miss_penalty=10),
    CacheConfig(size_bytes=2048, line_bytes=32, associativity=2,
                hit_latency=2, miss_penalty=9, victim_entries=4),
    CacheConfig(size_bytes=1024, line_bytes=32, associativity=1,
                hit_latency=1, miss_penalty=10, write_buffer=True),
    CacheConfig(size_bytes=4096, line_bytes=64, associativity=4,
                hit_latency=1, miss_penalty=20, victim_entries=8,
                write_buffer=True),
)

CONFIG = DiffConfig("integrated", optimize=True, compaction=True,
                    ccm_bytes=512)


@pytest.fixture(scope="module")
def compiled():
    """A few compiled fuzz seeds, shared across the property tests."""
    out = []
    for seed in range(4):
        out.append(compile_config(
            compile_source(generate_source(seed)), CONFIG))
    return out


def _run_scalar(program, member):
    sim = Simulator(program, member.machine, fuel=FUEL,
                    poison_caller_saved=True,
                    cache=(DataCache(member.cache)
                           if member.cache is not None else None))
    return sim.run(), sim.globals_snapshot()


def _members(machine):
    r = dataclasses.replace
    return [
        BatchMember(machine),
        BatchMember(r(machine, memory_latency=6)),
        BatchMember(machine, CACHE_GEOMETRIES[0]),
        BatchMember(r(machine, default_latency=2), CACHE_GEOMETRIES[1]),
        BatchMember(machine, CACHE_GEOMETRIES[2]),
    ]


class TestBatchOfOneIsScalar:
    def test_single_member_equals_predecode(self, compiled):
        for program, machine in compiled:
            for member in _members(machine):
                batch = BatchSimulation(program, [member], fuel=FUEL,
                                        poison_caller_saved=True)
                results = batch.run()
                assert len(results) == 1
                scalar_run, scalar_globals = _run_scalar(program, member)
                assert results[0] == scalar_run
                assert batch.globals_snapshot() == scalar_globals

    def test_machine_config_coerces_to_member(self, compiled):
        program, machine = compiled[0]
        batch = BatchSimulation(program, [machine], fuel=FUEL,
                                poison_caller_saved=True)
        scalar_run, _ = _run_scalar(program, BatchMember(machine))
        assert batch.run() == [scalar_run]


class TestPermutationInvariance:
    def test_results_follow_members_not_order(self, compiled):
        rng = random.Random(7)
        for program, machine in compiled:
            members = _members(machine)
            baseline = BatchSimulation(program, members, fuel=FUEL,
                                       poison_caller_saved=True).run()
            for _ in range(3):
                order = list(range(len(members)))
                rng.shuffle(order)
                shuffled = BatchSimulation(
                    program, [members[i] for i in order], fuel=FUEL,
                    poison_caller_saved=True).run()
                for slot, i in enumerate(order):
                    assert shuffled[slot] == baseline[i], (
                        f"member {i} changed under order {order}")


class TestCycleAccounting:
    def test_cycles_partition_exactly(self, compiled):
        for program, machine in compiled:
            members = _members(machine)
            runs = BatchSimulation(program, members, fuel=FUEL,
                                   poison_caller_saved=True).run()
            for member, run in zip(members, runs):
                s = run.stats
                assert s.cycles == s.op_cycles + s.memory_cycles, (
                    f"accounting leak for {member}")


class TestArchSignatureGate:
    def test_empty_batch_rejected(self, compiled):
        program, _ = compiled[0]
        with pytest.raises(ValueError):
            BatchSimulation(program, [])

    def test_register_geometry_mismatch_rejected(self, compiled):
        program, machine = compiled[0]
        fat = dataclasses.replace(machine, n_int_regs=machine.n_int_regs * 2)
        with pytest.raises(ValueError, match="disagree architecturally"):
            BatchSimulation(program, [machine, fat])

    def test_ccm_free_program_batches_across_ccm_sizes(self, compiled):
        # ccm_bytes is unobservable without CCM instructions: such
        # members share one pass, and every member matches its scalar
        # run (the ccm_bytes=0 member included)
        r = dataclasses.replace
        baseline_cfg = DiffConfig("baseline", optimize=True, compaction=True,
                                  ccm_bytes=512)
        program, machine = compile_config(
            compile_source(generate_source(0)), baseline_cfg)
        assert not program_uses_ccm(program)
        members = [BatchMember(machine),
                   BatchMember(r(machine, ccm_bytes=4096)),
                   BatchMember(r(machine, ccm_bytes=0), CACHE_GEOMETRIES[0])]
        runs = BatchSimulation(program, members, fuel=FUEL,
                               poison_caller_saved=True).run()
        for member, run in zip(members, runs):
            scalar_run, _ = _run_scalar(program, member)
            assert run == scalar_run

    def test_ccm_limits_share_one_pass_below_watermark(self, compiled):
        # a CCM-using program batches across limits as long as every
        # limit stays above the dynamic high-water mark: the shared
        # pass runs under the largest limit, and each member's fanned-
        # out RunResult is bit-identical to its scalar run
        r = dataclasses.replace
        users = [(p, m) for p, m in compiled if program_uses_ccm(p)]
        assert users, "no CCM-using compiled seed; sharing untested"
        program, machine = users[0]
        members = [BatchMember(machine),
                   BatchMember(r(machine, ccm_bytes=4096)),
                   BatchMember(r(machine, ccm_bytes=2 * machine.ccm_bytes),
                               CACHE_GEOMETRIES[0])]
        runs = BatchSimulation(program, members, fuel=FUEL,
                               poison_caller_saved=True).run()
        for member, run in zip(members, runs):
            scalar_run, _ = _run_scalar(program, member)
            assert run == scalar_run

    def test_ccm_limit_divergence_raises_batch_split(self, compiled):
        # a member whose limit the watermark reaches cannot share the
        # pass: BatchSplit partitions the members by limit class, and
        # each strict re-dispatch matches its members' scalar runs —
        # including the small member's CCM trap, message for message
        r = dataclasses.replace
        probes = []
        for program, machine in compiled:
            if not program_uses_ccm(program):
                continue
            run = BatchSimulation(program, [machine], fuel=FUEL,
                                  poison_caller_saved=True).run()[0]
            if run.stats.max_ccm_offset >= 0:
                probes.append((program, machine, run.stats.max_ccm_offset))
        assert probes, "no seed touches the CCM; divergence untested"
        program, machine, watermark = probes[0]
        members = [BatchMember(machine),
                   BatchMember(r(machine, ccm_bytes=watermark))]
        with pytest.raises(BatchSplit) as excinfo:
            BatchSimulation(program, members, fuel=FUEL,
                            poison_caller_saved=True).run()
        assert excinfo.value.groups == [[0], [1]]

        def scalar_observe(member):
            sim = Simulator(program, member.machine, fuel=FUEL,
                            poison_caller_saved=True)
            try:
                return ("value", sim.run(), sim.globals_snapshot())
            except SimulationError as exc:
                return ("error", str(exc), sim.globals_snapshot())

        for sub in excinfo.value.groups:
            sub_members = [members[j] for j in sub]
            batch = BatchSimulation(program, sub_members, fuel=FUEL,
                                    poison_caller_saved=True)
            try:
                runs = batch.run()
                observed = [("value", run, batch.globals_snapshot())
                            for run in runs]
            except SimulationError as exc:
                observed = [("error", str(exc),
                             batch.globals_snapshot())] * len(sub_members)
            for member, obs in zip(sub_members, observed):
                assert obs == scalar_observe(member)
        # the small-limit class genuinely trapped
        small_obs = scalar_observe(members[1])
        assert small_obs[0] == "error" and "CCM" in small_obs[1]


class TestBatchedCachesOracle:
    def test_lockstep_matches_independent_datacaches(self):
        rng = random.Random(1998)
        configs = list(CACHE_GEOMETRIES) + [None]
        batched = BatchedCaches(configs)
        scalars = [DataCache(cfg) if cfg is not None else None
                   for cfg in configs]
        scalar_lat = [0] * len(configs)
        for _ in range(5000):
            # a mix of hot lines (stack frame reuse) and cold sweeps
            addr = (rng.randrange(0, 2048) if rng.random() < 0.7
                    else rng.randrange(0, 1 << 20))
            is_store = rng.random() < 0.4
            assert batched.access(addr, is_store) == 0
            for i, cache in enumerate(scalars):
                if cache is not None:
                    scalar_lat[i] += cache.access(addr, is_store)
        for i, cache in enumerate(scalars):
            if cache is None:
                assert batched.member_stats(i) is None
                assert batched.lat[i] == 0
            else:
                assert batched.member_stats(i) == cache.stats
                assert batched.lat[i] == scalar_lat[i]

    def test_inconsistent_geometry_rejected(self):
        bad = dataclasses.replace(CACHE_GEOMETRIES[0], size_bytes=1000)
        with pytest.raises(ValueError):
            BatchedCaches([bad])


class TestGrouping:
    def test_group_batches_insertion_ordered(self):
        groups = group_batches(["b", "a", None, "b", "c", "a", None])
        assert groups == [[0, 3], [1, 5], [4]]

    def test_fingerprint_is_content_based(self, compiled):
        program, machine = compiled[0]
        reparsed = parse_program(format_program(program))
        assert program_fingerprint(reparsed) == program_fingerprint(program)
        assert batch_key(reparsed, machine) == batch_key(program, machine)

    def test_batch_key_separates_timing_from_architecture(self, compiled):
        r = dataclasses.replace
        program, machine = compiled[0]
        assert batch_key(program, r(machine, memory_latency=9)) \
            == batch_key(program, machine)
        # ccm_bytes is not in the key either: limits group together and
        # the run validates/splits dynamically
        assert batch_key(program, r(machine, ccm_bytes=4096)) \
            == batch_key(program, machine)
        assert batch_key(program, r(machine, n_float_regs=4)) \
            != batch_key(program, machine)


@pytest.mark.fuzz
def test_accounting_and_permutation_over_corpus():
    """The structural properties, over a wider slice of the generator's
    distribution than the tier-1 fixtures: exact cycle partition for
    every member and permutation-invariant fan-out."""
    rng = random.Random(4398)
    for seed in range(40):
        program, machine = compile_config(
            compile_source(generate_source(seed)), CONFIG)
        members = _members(machine)
        try:
            baseline = BatchSimulation(program, members, fuel=FUEL,
                                       poison_caller_saved=True).run()
        except Exception:
            continue    # trapping seeds are the fuzz suite's job
        for run in baseline:
            s = run.stats
            assert s.cycles == s.op_cycles + s.memory_cycles
        order = list(range(len(members)))
        rng.shuffle(order)
        shuffled = BatchSimulation(program, [members[i] for i in order],
                                   fuel=FUEL, poison_caller_saved=True).run()
        for slot, i in enumerate(order):
            assert shuffled[slot] == baseline[i]
