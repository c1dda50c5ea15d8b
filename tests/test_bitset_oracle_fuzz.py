"""Bitset engine vs. set oracle: equivalence over the fuzz corpus.

The dense bitset dataflow engine (``repro.analysis.bitset``) and the
set-based oracle in ``liveness_oracle.py`` compute the same facts by
construction; these
property tests pin that claim against the differential-testing
generator's program distribution:

* liveness agrees **block for block** (live-in and live-out),
* the interference graph agrees **edge for edge** (same node set, same
  adjacency, same move list),
* the dense numbering is identical across processes with hostile
  ``PYTHONHASHSEED`` values.

A small seed range runs in tier 1; the ≥200-seed sweep carries the
``fuzz`` marker (deselected by default, run with ``-m fuzz``).
"""

import os
import subprocess
import sys

import pytest

from liveness_oracle import build_interference_graph_sets, \
    compute_liveness_sets

from repro.analysis import CFG, compute_liveness_masks
from repro.difftest.gen import generate_source
from repro.frontend import compile_source
from repro.difftest.runner import GEOMETRIES
from repro.machine import MachineConfig
from repro.opt import optimize_program
from repro.regalloc.interference import build_interference_graph

# the difftest lattice's heavy-spilling geometry: small register files
# make the interference graphs dense enough to stress the engine
SMALL_MACHINE = MachineConfig(ccm_bytes=512, **GEOMETRIES["small"])

SMOKE_SEEDS = range(0, 12)
FUZZ_SEEDS = range(0, 220)


def _functions_for_seed(seed: int):
    """The generated program, scalar-optimized so liveness is non-trivial."""
    prog = compile_source(generate_source(seed))
    optimize_program(prog)
    return list(prog.functions.values())


def _assert_liveness_agrees(fn) -> None:
    cfg = CFG(fn)
    bits = compute_liveness_masks(fn, cfg)
    oracle = compute_liveness_sets(fn, cfg)
    for block in fn.blocks:
        label = block.label
        assert bits.index.set_of(bits.live_in[label]) \
            == oracle.live_in[label], f"{fn.name}/{label} live_in"
        assert bits.index.set_of(bits.live_out[label]) \
            == oracle.live_out[label], f"{fn.name}/{label} live_out"


def _graph_shape(graph):
    nodes = graph.nodes()
    adjacency = {repr(n): sorted(repr(m) for m in graph.neighbors(n))
                 for n in nodes}
    moves = sorted(repr(m) for m in graph.moves)
    return sorted(map(repr, nodes)), adjacency, moves


def _assert_interference_agrees(fn) -> None:
    bit_graph = build_interference_graph(fn, SMALL_MACHINE)
    set_graph = build_interference_graph_sets(fn, SMALL_MACHINE)
    bit_nodes, bit_adj, bit_moves = _graph_shape(bit_graph)
    set_nodes, set_adj, set_moves = _graph_shape(set_graph)
    assert bit_nodes == set_nodes, f"{fn.name}: node sets differ"
    assert bit_adj == set_adj, f"{fn.name}: adjacency differs"
    assert bit_moves == set_moves, f"{fn.name}: move lists differ"


def _check_seed_range(seeds) -> None:
    for seed in seeds:
        for fn in _functions_for_seed(seed):
            _assert_liveness_agrees(fn)
            _assert_interference_agrees(fn)


class TestEquivalenceSmoke:
    def test_small_seed_range(self):
        _check_seed_range(SMOKE_SEEDS)


@pytest.mark.fuzz
def test_equivalence_over_fuzz_corpus():
    _check_seed_range(FUZZ_SEEDS)


_NUMBERING_SNIPPET = r"""
import hashlib
from repro.analysis import DenseIndex
from repro.difftest.gen import generate_source
from repro.frontend import compile_source
from repro.opt import optimize_program

digest = hashlib.sha256()
for seed in range(8):
    prog = compile_source(generate_source(seed))
    optimize_program(prog)
    for fn in prog.functions.values():
        index = DenseIndex(fn)
        digest.update(";".join(repr(r) for r in index.regs).encode())
print(digest.hexdigest())
"""


def _numbering_digest(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH", "")] if p)
    out = subprocess.run([sys.executable, "-c", _NUMBERING_SNIPPET], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestCrossProcessNumbering:
    def test_dense_numbering_survives_hash_randomization(self):
        # the numbering feeds allocator tie-breaking; if it drifted with
        # the hash seed, compiled artifacts would too
        assert _numbering_digest("1") == _numbering_digest("31337")
