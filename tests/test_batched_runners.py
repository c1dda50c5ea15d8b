"""The batched sweep runners equal their per-config scalar loops.

:func:`repro.difftest.check_source` and
:func:`repro.harness.ablation.run_ablation` only ever simulate through
shared batched passes.  These tests pin their *runner-level* output —
whole :class:`SeedResult`\\ s, divergence for divergence, and ablation
cells — to the one-simulation-per-config loops kept in
``runner_oracle.py``: on fuzz seeds (on the default lattice and on the
``chaitin,ssa,ssa-noremat`` one), on the persistent corpus, and under
every injected fault (so divergent, trapping and machine-error outcomes
are compared too, not just clean ones, each under its own config's
name), and under a pass that breaks verification for some configs (the
batched runner verifies each distinct program once, the scalar loop
every config).
"""

import pytest

import runner_oracle
from runner_oracle import ablation_cells_scalar, check_source_scalar

from repro.ccm import compaction
from repro.difftest import check_source, generate_source, iter_corpus, runner
from repro.difftest.faults import FAULTS
from repro.difftest.runner import config_lattice
from repro.frontend import compile_source
from repro.harness.ablation import run_ablation
from repro.ir import CCM_OPS, SPILL_OPS
from repro.machine import program_fingerprint
from repro.trace import TraceRecorder, recording

SEEDS = range(10)
#: the seeds run on the allocator lattice and under every fault
FEW_SEEDS = range(4)
ALLOCATORS = ("chaitin", "ssa", "ssa-noremat")
CORPUS = list(iter_corpus())


def _assert_same(source, context, **kwargs):
    batched = check_source(source, **kwargs)
    scalar = check_source_scalar(source, **kwargs)
    assert batched == scalar, context
    names = [d.config for d in batched.divergences]
    # one divergence per failing config, under that config's own name
    assert len(set(names)) == len(names), (context, names)
    return batched


@pytest.mark.parametrize("seed, allocators", [
    *(pytest.param(seed, None, id=str(seed)) for seed in SEEDS),
    *(pytest.param(seed, ALLOCATORS, id=f"allocators-{seed}")
      for seed in FEW_SEEDS)])
def test_fuzz_seed_matches_scalar_loop(seed, allocators):
    configs = config_lattice(allocators=allocators) if allocators else None
    _assert_same(generate_source(seed), seed, seed=seed, configs=configs)


@pytest.mark.parametrize("name, source, meta", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_corpus_entry_matches_scalar_loop(name, source, meta):
    _assert_same(source, name)


@pytest.mark.parametrize("fault_name, seed", [
    pytest.param(name, seed, id=name if seed == 0 else f"{name}-{seed}")
    for name in sorted(FAULTS) for seed in FEW_SEEDS])
def test_faulted_run_matches_scalar_loop(fault_name, seed):
    result = _assert_same(generate_source(seed), (fault_name, seed),
                          seed=seed, fault=FAULTS[fault_name])
    # seed 0 trips every fault; another seed's program may never
    # observe one (seed 2 returns the same under cmp_lt_to_le), so there
    # only the equality with the scalar loop is checked
    if seed == 0:
        assert result.divergences, f"fault {fault_name} went undetected"


def test_ablation_cells_match_per_cell_runs():
    routines = ["decomp", "fmin"]
    assert run_ablation(routines).cells == ablation_cells_scalar(routines)


def _skew_past_frame(monkeypatch):
    """Compaction that moves one stack slot past ``frame_size`` in every
    function without CCM code: the compacted baseline and ccm=0 configs
    fail verification, the configs that promote spills mostly do not."""
    real = compaction.compact_spill_memory

    def skewed(fn, analysis=None):
        result = real(fn, analysis=analysis)
        ops = [instr for _, instr in fn.instructions()]
        if not any(instr.opcode in CCM_OPS for instr in ops):
            for instr in ops:
                if instr.opcode in SPILL_OPS:
                    instr.imm = fn.frame_size
                    break
        return result

    # the runner (which compacts each decision key's representative)
    # and the oracle bind the name at import
    monkeypatch.setattr(runner, "compact_spill_memory", skewed)
    monkeypatch.setattr(runner_oracle, "compact_spill_memory", skewed)


@pytest.mark.parametrize("seed", range(4))
def test_verify_once_reports_every_failing_config(monkeypatch, seed):
    """Verifying once per distinct program keeps the check: a pass that
    breaks the frame gives the same compile_error divergences, config
    for config, as verifying each config's program."""
    _skew_past_frame(monkeypatch)
    source = generate_source(seed)
    configs = config_lattice()
    stages = runner._StageCache(compile_source(source), configs)
    distinct = {program_fingerprint(runner.finalize_config(stages, c)[0])
                for c in configs}

    calls = []
    real_verify = runner.verify_program

    def counting(program):
        calls.append(program)
        return real_verify(program)

    monkeypatch.setattr(runner, "verify_program", counting)
    recorder = TraceRecorder()
    with recording(recorder):
        batched = check_source(source, seed=seed)
    scalar = check_source_scalar(source, seed=seed)

    assert batched == scalar
    failed = [d for d in batched.divergences if d.kind == "compile_error"]
    assert failed and len(failed) < len(configs)
    assert all("exceeds the declared" in d.detail for d in failed)
    # the reference program, then one verification per distinct program
    assert len(calls) == 1 + len(distinct)
    assert recorder.counters["difftest.distinct_programs"] == len(distinct)
    assert recorder.span_totals()["difftest.verify"][0] == len(distinct)
