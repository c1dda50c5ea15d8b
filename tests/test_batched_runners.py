"""The batched sweep runners equal their per-config scalar loops.

:func:`repro.difftest.check_source` and
:func:`repro.harness.ablation.run_ablation` only ever simulate through
shared batched passes.  These tests pin their *runner-level* output —
whole :class:`SeedResult`\\ s, divergence for divergence, and ablation
cells — to the one-simulation-per-config loops kept in
``runner_oracle.py``: on fuzz seeds, on the persistent corpus, and
under every injected fault (so divergent, trapping and machine-error
outcomes are compared too, not just clean ones).
"""

import pytest

from runner_oracle import ablation_cells_scalar, check_source_scalar

from repro.difftest import check_source, generate_source, iter_corpus
from repro.difftest.faults import FAULTS
from repro.harness.ablation import run_ablation

SEEDS = range(10)
CORPUS = list(iter_corpus())


def _assert_same(source, context, **kwargs):
    batched = check_source(source, **kwargs)
    scalar = check_source_scalar(source, **kwargs)
    assert batched == scalar, context
    return batched


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_seed_matches_scalar_loop(seed):
    _assert_same(generate_source(seed), seed, seed=seed)


@pytest.mark.parametrize("name, source, meta", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_corpus_entry_matches_scalar_loop(name, source, meta):
    _assert_same(source, name)


@pytest.mark.parametrize("fault_name", sorted(FAULTS))
def test_faulted_run_matches_scalar_loop(fault_name):
    result = _assert_same(generate_source(0), fault_name, seed=0,
                          fault=FAULTS[fault_name])
    assert result.divergences, f"fault {fault_name} went undetected"


def test_ablation_cells_match_per_cell_runs():
    routines = ["decomp", "fmin"]
    assert run_ablation(routines).cells == ablation_cells_scalar(routines)
