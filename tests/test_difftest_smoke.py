"""Tier-1 differential smoke: 25 seeds across the full config lattice,
plus a replay of the persistent corpus.

This is the acceptance gate for the whole pipeline: every lattice point
(opt on/off x {baseline, postpass, postpass_cg, integrated} x compaction
on/off x CCM sizes {0, 64, 512, 1024}, and the register-allocator axis
{chaitin, ssa, ssa-everywhere} on a reduced CCM axis) must behave
identically to the unoptimized, unallocated reference on every seed.
Deeper sweeps carry the ``fuzz`` marker and are deselected by default;
run them with ``pytest -m fuzz`` or ``python -m repro difftest
--profile nightly`` (add ``--allocators chaitin,ssa`` for the full
allocator cross-product).
"""

import pytest

from repro.difftest import (check_source, config_lattice, generate_source,
                            iter_corpus)

CONFIGS = config_lattice()
SMOKE_SEEDS = list(range(25))

#: The register-allocator axis.  Tier 1 runs the SSA backend over a
#: reduced CCM axis (no CCM, and the paper's 512 bytes) — the scheme
#: x compaction x optimization cross is what interacts with allocation;
#: intermediate CCM sizes add little and the nightly sweep has them all.
SSA_CONFIGS = config_lattice(ccm_sizes=(0, 512), allocators=("ssa",))
SSA_EVERYWHERE_CONFIGS = config_lattice(ccm_sizes=(0, 512),
                                        allocators=("ssa-everywhere",))
#: chaitin + ssa cross-product over the full CCM axis, for the nightly
FULL_ALLOCATOR_CONFIGS = config_lattice(allocators=("chaitin", "ssa"))

# batches keep pytest overhead low while pinpointing the failing seed
_BATCH = 5
_BATCHES = [SMOKE_SEEDS[i:i + _BATCH]
            for i in range(0, len(SMOKE_SEEDS), _BATCH)]


def _check_seed(seed, configs):
    return check_source(generate_source(seed), configs, seed=seed)


def _assert_clean(result, what):
    assert result.skipped is None, f"{what} skipped: {result.skipped}"
    assert not result.divergences, "\n".join(
        f"{what} diverged under {d.config} [{d.kind}]: {d.detail}"
        for d in result.divergences)


@pytest.mark.parametrize("seeds", _BATCHES,
                         ids=[f"seeds{b[0]}-{b[-1]}" for b in _BATCHES])
def test_smoke_seeds_agree_across_lattice(seeds):
    for seed in seeds:
        _assert_clean(_check_seed(seed, CONFIGS), f"seed {seed}")


@pytest.mark.parametrize("seeds", _BATCHES,
                         ids=[f"seeds{b[0]}-{b[-1]}" for b in _BATCHES])
def test_smoke_seeds_agree_under_ssa_allocator(seeds):
    """The allocator dimension of the lattice: the SSA backend must
    match the same unallocated reference on every scheme."""
    for seed in seeds:
        _assert_clean(_check_seed(seed, SSA_CONFIGS), f"seed {seed} (ssa)")


def test_smoke_seeds_agree_under_ssa_everywhere():
    """Spill-everywhere variant, one batch: the two SSA modes share the
    coloring and out-of-SSA stages, so a shorter range suffices here and
    the nightly sweep covers the rest."""
    for seed in SMOKE_SEEDS[:5]:
        _assert_clean(_check_seed(seed, SSA_EVERYWHERE_CONFIGS),
                      f"seed {seed} (ssa-everywhere)")


_CORPUS = list(iter_corpus())


@pytest.mark.parametrize("name,source,meta", _CORPUS,
                         ids=[name for name, _, _ in _CORPUS])
def test_corpus_replays_clean(name, source, meta):
    """Every past divergence (minimized and checked in) stays fixed, and
    every sentinel shape stays clean.  Entries whose header carries an
    ``xfail:`` line document known-open bugs awaiting a fix."""
    if "xfail" in meta:
        pytest.xfail(f"known-open: {meta['xfail']}")
    _assert_clean(check_source(source, CONFIGS), f"corpus entry {name}")


def test_corpus_is_not_empty():
    """The corpus always carries at least the sentinel shapes; an empty
    corpus means the checkout (or corpus_dir resolution) is broken."""
    assert len(_CORPUS) >= 3


@pytest.mark.fuzz
def test_fuzz_deeper_sweep():
    """200 fresh seeds beyond the smoke range (minutes, not seconds)."""
    from repro.difftest import run_fuzz
    report = run_fuzz(range(25, 225), CONFIGS)
    assert not report.divergences, report.format_json()
    assert report.seeds_skipped <= 4    # generator quality guard


@pytest.mark.fuzz
def test_fuzz_allocator_cross_product():
    """The full chaitin x ssa lattice (104 configs): any divergence
    between the backends on any scheme is an allocator bug."""
    from repro.difftest import run_fuzz
    report = run_fuzz(range(0, 100), FULL_ALLOCATOR_CONFIGS)
    assert not report.divergences, report.format_json()
    assert report.seeds_skipped <= 2
