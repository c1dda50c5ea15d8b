"""Decide, then materialize once per decision key ≡ compile every config.

The difftest runner decides each config's CCM placement from the compile
plan's shared analyses, without touching the IR, and keys the config
by everything its shared rewrite would write
(:meth:`~repro.exec.plan.CompilePlan.decision_key`).  It then clones,
rewrites, compacts, fingerprints and verifies one program per key.
These tests pin both halves:

* the work: per seed, ``Program.clone``, compaction (per function) and
  ``program_fingerprint`` each run at most once per decision key plus
  once per compiled snapshot of the plan, and the seed's decision-key
  count is pinned;
* the answer: every config's program equals its compile on its own
  clone (``runner_oracle.compile_config_scalar``) — listing, frame size
  and ``ccm_high_water`` — configs with equal keys share listing and
  frame sizes, and a 0-byte CCM collapses onto the baseline's key.  ``test_batched_runners`` holds whole
  :class:`SeedResult`\\ s to the per-config oracle on both allocator
  lattices and under every fault; the ``fuzz`` sweep here also
  compares the default lattice's.
"""

from collections import Counter

import pytest

from runner_oracle import check_source_scalar, compile_config_scalar

from repro.ccm import compaction
from repro.difftest import check_source, generate_source, runner
from repro.difftest.runner import config_lattice, finalize_config, plan_for
from repro.exec import plan as plan_module
from repro.exec.plan import _chaitin
from repro.frontend import compile_source
from repro.ir import Program, format_program
from repro.trace import TraceRecorder, recording

TIER1_SEEDS = range(4)
SWEEP_SEEDS = range(4, 120)
ALLOCATORS = ("chaitin", "ssa", "ssa-noremat")
#: decision keys per seed on the default lattice.  Seeds 2, 4 and 6
#: have a recursive function, which post-pass+CG reports as filling
#: the CCM; keyed on that mark as well as the promoted offsets, they
#: took 24, 20 and 16 keys
PINNED_KEYS = {0: 12, 1: 12, 2: 12, 3: 12, 4: 8, 6: 12}


def _count_work(monkeypatch, seed):
    """Run one seed on the default lattice, counting the per-key work;
    returns (counts, decision keys, snapshots)."""
    counts = Counter()
    compacted = Counter()
    caches = []

    real_clone = Program.clone
    real_compact = compaction.compact_spill_memory
    real_fingerprint = runner.program_fingerprint

    def clone(program):
        counts["clone"] += 1
        return real_clone(program)

    def compact(fn, analysis=None):
        compacted[fn.name] += 1
        return real_compact(fn, analysis=analysis)

    def fingerprint(program):
        counts["fingerprint"] += 1
        return real_fingerprint(program)

    class CompilePlan(plan_module.CompilePlan):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(Program, "clone", clone)
    monkeypatch.setattr(plan_module, "compact_spill_memory", compact)
    monkeypatch.setattr(runner, "program_fingerprint", fingerprint)
    monkeypatch.setattr(runner, "CompilePlan", CompilePlan)
    recorder = TraceRecorder()
    with recording(recorder):
        result = check_source(generate_source(seed), seed=seed)
    assert result.ok, result.divergences
    (plan,) = caches
    counts["compaction"] = max(compacted.values(), default=0)
    # the compiled snapshots each key is cloned from
    snapshots = (len(plan._lowered) + len(plan._allocated)
                 + len(plan._ssa_integrated))
    return counts, recorder.counters["difftest.decision_keys"], snapshots


def _check_work(monkeypatch, seed):
    counts, keys, snapshots = _count_work(monkeypatch, seed)
    n_configs = len(config_lattice())
    # every ccm0 config collapses onto its baseline: at most 13 of the
    # 26 configs per (optimize, allocator) setting can have keys of
    # their own
    assert keys <= n_configs // 2, (seed, keys)
    assert keys == PINNED_KEYS.get(seed, keys), (seed, keys)
    for name in ("clone", "compaction", "fingerprint"):
        assert counts[name] <= keys + snapshots, (seed, name, counts, keys,
                                                  snapshots)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_work_is_per_decision_key(monkeypatch, seed):
    _check_work(monkeypatch, seed)


def _check_programs(seed, configs):
    """Each config's program from the stage cache equals its oracle
    compile; configs with equal keys get equal programs."""
    base = compile_source(generate_source(seed))
    plan = plan_for(base, configs)
    oracle_plan = plan_for(base, configs)
    by_key = {}
    for config in configs:
        context = (seed, config.name)
        program, _ = finalize_config(plan, config)
        expected, _ = compile_config_scalar(oracle_plan, config)
        listing = format_program(program)
        assert listing == format_program(expected), context
        frames = {name: (fn.frame_size, fn.ccm_high_water)
                  for name, fn in program.functions.items()}
        assert frames == {name: (fn.frame_size, fn.ccm_high_water)
                          for name, fn in expected.functions.items()}, \
            context
        # the key fixes the shared rewrite; each config's own decision
        # sets ccm_high_water after it
        shared = (listing, {name: fn.frame_size
                            for name, fn in program.functions.items()})
        key = plan.decision_key(config.plan_key)
        assert by_key.setdefault(key, shared) == shared, context


def _check_collapse(seed, configs):
    """A 0-byte CCM moves nothing: every ccm0 config shares the key of
    the baseline with the same (optimize, compaction, allocator) —
    except the SSA backends' integrated configs, which allocate per
    size."""
    plan = plan_for(compile_source(generate_source(seed)), configs)
    baseline = {}
    for config in configs:
        key = config.plan_key
        if config.variant == "baseline":
            baseline[key.setting, config.compaction] = \
                plan.decision_key(key)
    for config in configs:
        key = config.plan_key
        per_size = (config.variant == "integrated"
                    and not _chaitin(config.allocator))
        if config.ccm_bytes == 0 and not per_size:
            assert plan.decision_key(key) == \
                baseline[key.setting, config.compaction], \
                (seed, config.name)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_programs_match_oracle_per_config(seed):
    _check_programs(seed, config_lattice())


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_zero_size_configs_collapse_onto_baseline(seed):
    _check_collapse(seed, config_lattice(allocators=ALLOCATORS))


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fuzz_sweep_decision_keys(monkeypatch, seed):
    _check_work(monkeypatch, seed)
    monkeypatch.undo()
    _check_programs(seed, config_lattice())
    _check_collapse(seed, config_lattice())
    source = generate_source(seed)
    assert check_source(source, seed=seed) == \
        check_source_scalar(source, seed=seed), seed

