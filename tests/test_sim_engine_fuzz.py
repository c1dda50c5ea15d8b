"""Simulator vs. reference interpreter: equivalence over the fuzz corpus.

The closure-compiled simulator driver (``repro.machine.predecode``) and
the reference interpreter (``InterpSimulator`` in ``sim_oracle.py``) must be
observationally indistinguishable — same return value, same
:class:`RunStats` field for field (cache statistics included),
same final global-array contents, and the same
exception type, ``kind``, and message on every trapping or malformed
seed.  These property tests pin that contract against the
differential-testing generator's program distribution, with the data
cache present and absent (closures specialize on ``has_cache``), and
on two lattice configs chosen to cover CCM traffic, spill code, and
unoptimized control flow.

A small seed range runs in tier 1; the ≥200-seed sweep carries the
``fuzz`` marker (deselected by default, run with ``-m fuzz``).  A
cross-process test pins the simulator's results against hostile
``PYTHONHASHSEED`` values, exactly like the dense-numbering test in
``test_bitset_oracle_fuzz.py``.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from sim_oracle import simulator

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.machine import CacheConfig, DataCache, SimulationError

SMOKE_SEEDS = range(0, 10)
FUZZ_SEEDS = range(0, 220)

#: use_cache — the two decode paths
VARIANTS = (False, True)

#: Lattice points with complementary coverage: the optimized integrated
#: allocator emits CCM traffic and compacted spill code; the
#: unoptimized post-pass config keeps the generator's raw control flow
#: (more trapping divisions survive) on a tiny 64-byte CCM.
CONFIGS = (
    DiffConfig("integrated", optimize=True, compaction=True, ccm_bytes=512),
    DiffConfig("postpass", optimize=False, compaction=False, ccm_bytes=64),
)


def _observe(program, machine, engine: str, use_cache: bool):
    """Everything observable about one execution, as comparable data."""
    sim = simulator(engine, program, machine, fuel=FUEL,
                    poison_caller_saved=True,
                    cache=DataCache(CacheConfig()) if use_cache else None)
    try:
        run = sim.run()
    except SimulationError as exc:
        return ("error", type(exc).__name__, exc.kind, str(exc),
                sim.globals_snapshot())
    return ("value", run.value, dataclasses.asdict(run.stats),
            sim.globals_snapshot())


def _check_seed(seed: int) -> int:
    """Compare simulator and oracle on one seed; count trapping
    executions."""
    traps = 0
    source = generate_source(seed)
    for config in CONFIGS:
        program, machine = compile_config(compile_source(source), config)
        for use_cache in VARIANTS:
            interp = _observe(program, machine, "interp", use_cache)
            pre = _observe(program, machine, "predecode", use_cache)
            assert pre == interp, (
                f"seed {seed} config {config.name} cache={use_cache}:\n"
                f"  predecode: {pre!r}\n  interp:    {interp!r}")
            if interp[0] == "error":
                traps += 1
    return traps


class TestEquivalenceSmoke:
    def test_small_seed_range(self):
        for seed in SMOKE_SEEDS:
            _check_seed(seed)


@pytest.mark.fuzz
def test_equivalence_over_fuzz_corpus():
    traps = sum(_check_seed(seed) for seed in FUZZ_SEEDS)
    # the corpus must actually exercise the trap-comparison path: the
    # generator emits unguarded divisions, so a corpus this size always
    # contains trapping seeds
    assert traps > 0, "no trapping seed in the corpus; traps untested"


_RESULT_SNIPPET = r"""
import dataclasses
import hashlib

from repro.difftest.gen import generate_source
from repro.difftest.runner import FUEL, DiffConfig, compile_config
from repro.frontend import compile_source
from repro.machine import SimulationError, Simulator

digest = hashlib.sha256()
config = DiffConfig("integrated", optimize=True, compaction=True,
                    ccm_bytes=512)
for seed in range(8):
    program, machine = compile_config(
        compile_source(generate_source(seed)), config)
    sim = Simulator(program, machine, fuel=FUEL, poison_caller_saved=True)
    try:
        run = sim.run()
        obs = ("value", run.value, dataclasses.asdict(run.stats))
    except SimulationError as exc:
        obs = ("error", type(exc).__name__, exc.kind, str(exc))
    digest.update(repr(obs).encode())
    digest.update(repr(sorted(sim.globals_snapshot().items())).encode())
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
    def test_predecode_results_survive_hash_randomization(self):
        # slot numbering and decode order must be hash-seed
        # independent, or parallel sweep workers would
        # disagree with the serial path
        assert _result_digest("1") == _result_digest("31337")
