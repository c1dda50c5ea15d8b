"""Allocate once, place per size ≡ one integrated allocation per size.

Under Chaitin-Briggs the integrated scheme (section 3.2) makes the
baseline allocator's register decisions at every CCM size, so the
shipped path runs one allocation with :class:`CcmPlacementProvider`
and materializes each size from it.  These tests hold that path
bit-identical to the per-size oracle kept in ``ccm_oracle.py``:
``format_program``, every ``frame_size`` and every
:class:`AllocationResult` field, through the provider, the one-size
entry point :func:`allocate_function_integrated` and the compile
plan — under both the shipped interference builder and the
set-based oracle builder of ``liveness_oracle.py``.
"""

from dataclasses import replace

import pytest

from ccm_oracle import allocate_integrated_oracle
from liveness_oracle import use_set_builder

from repro.ccm import (CcmPlacementProvider, allocate_function_integrated,
                       compact_spill_memory)
from repro.difftest import generate_source
from repro.difftest.runner import (DEFAULT_CCM_SIZES, GEOMETRIES,
                                   config_lattice, finalize_config, plan_for)
from repro.frontend import compile_source
from repro.ir import SPILL_OPS, format_program
from repro.machine import PAPER_MACHINE_512, MachineConfig
from repro.opt import optimize_program
from repro.regalloc import allocate_function, lower_calling_convention
from repro.trace import TraceRecorder, recording
from repro.workloads.suite import routine_source, suite_names

RESULT_FIELDS = ("locations", "spilled", "rounds", "coalesced", "assignment",
                 "rematerialized")
SMALL = MachineConfig(**GEOMETRIES["small"])
TIER1_SEEDS = range(10)
SWEEP_SEEDS = range(10, 230)
SUITE_SIZES = (512, 1024)


@pytest.fixture(params=("bitset", "sets"))
def engine(request, monkeypatch):
    """Allocate on the shipped builder, or on the set-based oracle."""
    if request.param == "sets":
        use_set_builder(monkeypatch)
    return request.param


def _lowered(source, machine, optimize=True):
    prog = compile_source(source)
    if optimize:
        optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
    return prog


def _with_ccm(machine, ccm_bytes):
    return replace(machine, ccm_bytes=ccm_bytes)


def _oracle(lowered, machine, rematerialize=True):
    prog = lowered.clone()
    results = {name: allocate_integrated_oracle(fn, machine, rematerialize)
               for name, fn in prog.functions.items()}
    return prog, results


def _placed(lowered, machine, sizes, rematerialize=True):
    """The shipped path: one allocation, one clone + materialize per
    size.  Returns {size: (program, results)} and the shared program."""
    shared = lowered.clone()
    providers, results = {}, {}
    for name, fn in shared.functions.items():
        provider = providers[name] = CcmPlacementProvider(fn, sizes)
        results[name] = allocate_function(
            fn, machine, slot_provider=provider,
            graph_hook=provider.graph_hook, rematerialize=rematerialize,
            engine="chaitin")
    placed = {}
    for size in sizes:
        prog = shared.clone()
        placed[size] = (prog, {
            name: providers[name].placement.materialize(fn, size,
                                                        results[name])
            for name, fn in prog.functions.items()})
    return placed, shared


def _single(lowered, machine, rematerialize=True):
    prog = lowered.clone()
    results = {name: allocate_function_integrated(
        fn, machine, engine="chaitin", rematerialize=rematerialize)
        for name, fn in prog.functions.items()}
    return prog, results


def _assert_same_program(expected, actual, context):
    assert format_program(actual) == format_program(expected), context
    for name, fn in expected.functions.items():
        assert actual.functions[name].frame_size == fn.frame_size, \
            (context, name)


def _assert_same(expected, actual, context):
    (eprog, eresults), (aprog, aresults) = expected, actual
    _assert_same_program(eprog, aprog, context)
    for name, eres in eresults.items():
        ares = aresults[name]
        assert ares.fn is aprog.functions[name], (context, name)
        for field in RESULT_FIELDS:
            assert getattr(ares, field) == getattr(eres, field), \
                (context, name, field)
        assert list(ares.locations) == list(eres.locations), (context, name)


def _check_sizes(lowered, machine, sizes, rematerialize, context,
                 single=True):
    """The provider path (and the one-size entry point) against the
    oracle at every size; returns the oracle programs by size."""
    placed, _ = _placed(lowered, machine, sizes, rematerialize)
    oracles = {}
    for size in sizes:
        sized = _with_ccm(machine, size)
        oracle = _oracle(lowered, sized, rematerialize)
        where = (*context, size)
        _assert_same(oracle, placed[size], where)
        if single:
            _assert_same(oracle, _single(lowered, sized, rematerialize),
                         where)
        oracles[size] = oracle[0]
    return oracles


def _check_seed(seed):
    """One fuzz seed over the 52-config lattice and its ``-noremat``
    slice.  Integrated configs from the compile plan match the oracle
    (compaction runs after allocation, on identical input); the other
    configs start from the shared allocation, which must match a plan
    that places nothing."""
    base = compile_source(generate_source(seed))
    configs = config_lattice(allocators=(None, "chaitin-noremat"))
    plan = plan_for(base, configs)
    plain = plan_for(base, [])
    assert plan.ccm_sizes == DEFAULT_CCM_SIZES and not plain.ccm_sizes
    oracles = {}
    for config in configs:
        setting = config.plan_key.setting
        if setting not in oracles:
            _assert_same_program(plain.allocated(setting),
                                 plan.allocated(setting), setting)
            oracles[setting] = _check_sizes(
                plan.lowered(SMALL, config.optimize), SMALL,
                DEFAULT_CCM_SIZES, config.rematerialize, (seed, *setting))
        if config.variant != "integrated":
            continue
        program, _ = finalize_config(plan, config)
        expected = oracles[setting][config.ccm_bytes].clone()
        if config.compaction:
            for fn in expected.functions.values():
                compact_spill_memory(fn)
        _assert_same_program(expected, program, (seed, config.name))


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fuzz_seed_matches_oracle(engine, seed):
    _check_seed(seed)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fuzz_sweep_matches_oracle(engine, seed):
    _check_seed(seed)


@pytest.mark.parametrize("name", suite_names())
def test_suite_routine_matches_oracle(name):
    """Both sizes from one allocation against the oracle; the one-size
    entry point (the harness path) is swept under the fuzz marker."""
    lowered = _lowered(routine_source(name), PAPER_MACHINE_512)
    _check_sizes(lowered, PAPER_MACHINE_512, SUITE_SIZES, True, (name,),
                 single=False)


@pytest.mark.fuzz
@pytest.mark.parametrize("name", suite_names())
def test_suite_routine_sweep_matches_oracle(engine, name):
    lowered = _lowered(routine_source(name), PAPER_MACHINE_512)
    _check_sizes(lowered, PAPER_MACHINE_512, SUITE_SIZES, True, (name,))


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_zero_size_placement_is_the_baseline(engine, seed):
    """At ccm=0 nothing fits in the CCM: the placed program and result
    are exactly the baseline allocator's."""
    for optimize in (True, False):
        lowered = _lowered(generate_source(seed), SMALL, optimize)
        baseline = lowered.clone()
        results = {name: allocate_function(fn, SMALL, engine="chaitin")
                   for name, fn in baseline.functions.items()}
        placed, shared = _placed(lowered, SMALL, (0,))
        _assert_same((baseline, results), placed[0], (seed, optimize))
        _assert_same_program(baseline, shared, (seed, optimize))


def test_shared_allocation_emits_baseline_stack_code():
    """Whatever the sizes, the allocation itself stays in baseline
    stack form with one unique offset per spilled value."""
    lowered = _lowered(generate_source(3), SMALL)
    baseline = lowered.clone()
    for fn in baseline.functions.values():
        allocate_function(fn, SMALL, engine="chaitin")
    placed, shared = _placed(lowered, SMALL, DEFAULT_CCM_SIZES)
    _assert_same_program(baseline, shared, "shared")
    for name, fn in shared.functions.items():
        spilled = placed[0][1][name].spilled
        offsets = {instr.imm for _, instr in fn.instructions()
                   if instr.opcode in SPILL_OPS}
        assert len(offsets) == len(spilled)
    assert any(placed[0][1][name].spilled for name in shared.functions)


def test_in_place_needs_one_size():
    fn = _lowered(generate_source(0), SMALL).entry
    with pytest.raises(ValueError):
        CcmPlacementProvider(fn, (64, 512), in_place=True)


CALL_SOURCE = """
func leaf(x: float): float { return x * 0.5 }
func main(): float {
  var a: float = 1.5
  var b: float = 2.5
  var c: float = 3.5
  var d: float = 4.5
  var e: float = 5.5
  var f: float = 6.5
  var g: float = 7.5
  var h: float = 8.5
  var i: float = 9.5
  var s: float = leaf(a)
  return s + a + b + c + d + e + f + g + h + i
}
"""


class TestStackReasonCounters:
    """Placement says why a spilled value stayed on the stack."""

    def _counters(self, ccm_bytes, source=CALL_SOURCE):
        lowered = _lowered(source, SMALL, optimize=False)
        recorder = TraceRecorder()
        with recording(recorder):
            _single(lowered, _with_ccm(SMALL, ccm_bytes))
        return recorder.counters

    def test_live_across_call(self):
        counters = self._counters(1024)
        assert counters.get("ccm.integrated.stack_live_across_call", 0) > 0
        assert "ccm.integrated.stack_ccm_full" not in counters

    def test_ccm_full(self):
        counters = self._counters(0, generate_source(0))
        assert counters.get("ccm.integrated.stack_ccm_full", 0) > 0

    def test_regalloc_counters_describe_the_placed_code(self):
        source = generate_source(0)
        counters = self._counters(1024, source)
        lowered = _lowered(source, SMALL, optimize=False)
        prog, results = _oracle(lowered, _with_ccm(SMALL, 1024))
        ccm = sum(len(r.ccm_spills) for r in results.values())
        assert ccm > 0
        assert counters["regalloc.ccm_spills"] == ccm
        assert counters["regalloc.frame_bytes"] == sum(
            fn.frame_size for fn in prog.functions.values())

    def test_no_recorder_no_counters(self):
        from repro.trace import current
        assert current() is None
        lowered = _lowered(CALL_SOURCE, SMALL, optimize=False)
        _single(lowered, _with_ccm(SMALL, 0))
        assert current() is None
