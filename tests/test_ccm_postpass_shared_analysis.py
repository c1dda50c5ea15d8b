"""Analyze once, place per CCM size ≡ a fresh per-function walk per size.

The post-pass allocator's spill webs, their liveness, interference,
call crossings and costs (paper section 3.1) do not depend on the CCM
size; only first-fit placement does.  The difftest stage cache
therefore runs :func:`analyze_spill_webs` once per allocated snapshot,
decides every post-pass config from it (:func:`decide_postpass`, no IR
writes) and compacts with it too (:func:`stacked_analyses`).  These
tests hold those paths, and the shipped ``promote_spills_postpass``,
equal to the per-function walk of ``ccm_oracle.py`` on a fresh clone,
each function compacted afresh: listing, every ``frame_size`` and
``ccm_high_water``, and every :class:`PromotionReport` field, down to
each :class:`FunctionPromotion` — through :func:`decide_postpass` +
:func:`rewrite_postpass` + compaction, and through the stage cache
against the per-config oracle of ``runner_oracle.py``.
"""

from dataclasses import fields, replace

import pytest

from ccm_oracle import promote_spills_walk
from runner_oracle import compile_config_scalar

from repro.ccm import (FunctionPromotion, PromotionReport,
                       analyze_spill_webs, compact_spill_memory,
                       decide_postpass, promote_spills_postpass,
                       rewrite_postpass, stacked_analyses)
from repro.difftest import generate_source
from repro.difftest.runner import (_machine_for, _StageCache,
                                   config_lattice, finalize_config)
from repro.frontend import compile_source
from repro.ir import format_program
from repro.machine import PAPER_MACHINE_512
from repro.opt import optimize_program
from repro.regalloc import allocate_function, lower_calling_convention
from repro.workloads.suite import routine_source, suite_names

TIER1_SEEDS = range(10)
SWEEP_SEEDS = range(10, 230)
SUITE_SIZES = (512, 1024)


def _assert_same_report(expected, actual, context):
    for f in fields(PromotionReport):
        if f.name != "functions":
            assert getattr(actual, f.name) == getattr(expected, f.name), \
                (context, f.name)
    assert list(actual.functions) == list(expected.functions), context
    for name, epromo in expected.functions.items():
        apromo = actual.functions[name]
        for f in fields(FunctionPromotion):
            assert getattr(apromo, f.name) == getattr(epromo, f.name), \
                (context, name, f.name)


def _assert_same_program(expected, actual, context):
    assert format_program(actual) == format_program(expected), context
    for name, fn in expected.functions.items():
        other = actual.functions[name]
        assert other.frame_size == fn.frame_size, (context, name)
        assert other.ccm_high_water == fn.ccm_high_water, (context, name)


def _check_placement(snapshot, analyses, machine, interprocedural,
                     compaction, context):
    """The shipped whole-program run, and the shared analysis's
    decision rewritten into a clone and compacted with the same
    analysis, against the per-function walk on its own clone, compacted
    afresh."""
    fresh = snapshot.clone()
    expected = promote_spills_walk(fresh, machine, interprocedural)
    if compaction:
        for fn in fresh.functions.values():
            compact_spill_memory(fn)
    else:
        # the shipped run compacts nothing: once per placement suffices
        shipped = snapshot.clone()
        _assert_same_report(expected, promote_spills_postpass(
            shipped, machine, interprocedural), context)
        _assert_same_program(fresh, shipped, context)
    # the decision alone: no IR writes until the rewrite
    listing = format_program(snapshot)
    decision = decide_postpass(snapshot, analyses, machine.ccm_bytes,
                               interprocedural)
    assert format_program(snapshot) == listing, context
    _assert_same_report(expected, decision, context)
    decided = snapshot.clone()
    rewrite_postpass(decided, decision)
    if compaction:
        stacked = stacked_analyses(analyses, decision)
        for fn in decided.functions.values():
            compact_spill_memory(fn, analysis=stacked[fn.name])
    _assert_same_program(fresh, decided, context)


def _check_seed(seed):
    """Every post-pass config of the lattice, through the stage cache's
    shared analyses, and ``finalize_config`` against the oracle."""
    base = compile_source(generate_source(seed))
    configs = [c for c in config_lattice()
               if c.variant in ("postpass", "postpass_cg")]
    stages = _StageCache(base, config_lattice())
    for config in configs:
        setting = (config.optimize, config.geometry, config.allocator,
                   config.rematerialize)
        snapshot = stages.allocated(*setting)
        listing = format_program(snapshot)
        context = (seed, config.name)
        _check_placement(snapshot, stages.web_analyses(*setting),
                         _machine_for(config),
                         config.variant == "postpass_cg",
                         config.compaction, context)
        program, _ = finalize_config(stages, config)
        expected, _ = compile_config_scalar(stages, config)
        _assert_same_program(expected, program, context)
        # analysis and placement leave the shared snapshot pristine
        assert format_program(snapshot) == listing, context


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fuzz_seed_shared_analysis_matches_fresh(seed):
    _check_seed(seed)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fuzz_sweep_shared_analysis_matches_fresh(seed):
    _check_seed(seed)


def _allocated_routine(name, machine):
    prog = compile_source(routine_source(name))
    optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
        allocate_function(fn, machine)
    return prog


@pytest.mark.parametrize("name", suite_names())
def test_suite_routine_shared_analysis_matches_fresh(name):
    """One analysis of the harness allocation serves both paper CCM
    sizes, both post-pass variants, with and without compaction."""
    snapshot = _allocated_routine(name, PAPER_MACHINE_512)
    analyses = {fn_name: analyze_spill_webs(fn)
                for fn_name, fn in snapshot.functions.items()}
    for size in SUITE_SIZES:
        machine = replace(PAPER_MACHINE_512, ccm_bytes=size)
        for interprocedural in (False, True):
            for compaction in (False, True):
                _check_placement(snapshot, analyses, machine,
                                 interprocedural, compaction,
                                 (name, size, interprocedural, compaction))

