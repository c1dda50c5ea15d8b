"""Worklist simplify, color-mask select and per-round remat ≡ the
historical loops.

The shipped Chaitin-Briggs simplify removes nodes in rank order from a
worklist and takes blocked picks from a lazy heap; select keeps one
mask per color; rematerialization looks templates up in one map per
spill round.  ``regalloc_oracle.py`` keeps the loops they replaced.
These tests hold the two bit-identical:

* on random interference graphs (both register classes, precolored
  physical nodes, pseudo nodes, coalesced nodes, k from 1 to 4, costs
  with ties, zeros, gaps and infinities): the select stack, the
  assignment and the spill list;
* on real programs (every suite routine on the paper machine, fuzz
  seeds on the small geometry) under the stack and the integrated
  slot providers: every round's stack and coloring, every
  :class:`AllocationResult` field and ``format_program``;
* for rematerialization, on every register of a handcrafted function
  and of each spill round of the fuzz seeds: the template map against
  the per-register scan.

The ``fuzz``-marked sweep widens the real-program check to ~200 seeds.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regalloc_oracle import OracleChaitinBriggsAllocator

from repro.ccm import CcmPlacementProvider
from repro.difftest import generate_source
from repro.difftest.runner import GEOMETRIES
from repro.frontend import compile_source
from repro.ir import (Function, PhysReg, RegClass, VirtualReg, format_program,
                      parse_function)
from repro.machine import PAPER_MACHINE_512, MachineConfig
from repro.opt import optimize_program
from repro.regalloc import ChaitinBriggsAllocator, lower_calling_convention
from repro.regalloc.chaitin_briggs import AllocationError, remat_templates
from repro.regalloc.interference import InterferenceGraph, PseudoNode
from repro.regalloc.spill_costs import INFINITE
from repro.workloads.suite import routine_source, suite_names

SMALL = MachineConfig(**GEOMETRIES["small"])
RESULT_FIELDS = ("locations", "spilled", "rounds", "coalesced", "assignment",
                 "rematerialized")
TIER1_SEEDS = range(16)
SWEEP_SEEDS = range(16, 216)
CLASSES = (RegClass.INT, RegClass.FLOAT)


# -- random graphs -----------------------------------------------------------


class _Slot(PseudoNode):
    """A pseudo node: invisible to simplify and select."""

    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return f"slot{self.n}"


@st.composite
def graphs(draw):
    """(graph, costs, no_spill, machine) with every kind of node."""
    k_int = draw(st.integers(1, 4))
    k_float = draw(st.integers(1, 4))
    machine = replace(PAPER_MACHINE_512, n_int_regs=k_int,
                      n_float_regs=k_float)
    # sparse register numbers vary the hash slots, and so the rank order
    indices = draw(st.lists(st.integers(0, 300), min_size=1, max_size=28,
                            unique=True))
    vregs = [VirtualReg(i, draw(st.sampled_from(CLASSES))) for i in indices]
    phys = [PhysReg(i, c) for c in CLASSES
            for i in range(draw(st.integers(0, machine.n_regs(c) + 1)))]
    slots = [_Slot(n) for n in range(draw(st.integers(0, 3)))]
    nodes = draw(st.permutations(vregs + phys + slots))
    registers = [n for n in nodes if not isinstance(n, PseudoNode)]

    graph = InterferenceGraph()
    for node in nodes:
        graph.add_node(node)
    # dense enough that simplify blocks and select runs out of colors
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.8)))
    rng = draw(st.randoms(use_true_random=False))
    for a in registers:
        for b in registers:
            if rng.random() < density:
                graph.add_edge(a, b)  # drops self and cross-class pairs
    if slots and registers:
        for reg, slot in draw(st.lists(st.tuples(st.sampled_from(registers),
                                                 st.sampled_from(slots)),
                                       max_size=12)):
            graph.add_pseudo_edge(reg, slot)
    # coalesce: merge vregs into same-class vregs or physical registers
    for _ in range(draw(st.integers(0, 4))):
        alive = [v for v in vregs if v in graph]
        if len(alive) < 2:
            break
        b = draw(st.sampled_from(alive))
        partners = [n for n in alive + phys
                    if n != b and n.rclass is b.rclass]
        if not partners:
            continue
        graph.merge_into(draw(st.sampled_from(partners)), b)

    weights = st.sampled_from((0.0, 1.0, 1.0, 10.0, 100.0, 2.5, INFINITE))
    costs = {reg: draw(weights) for reg in registers
             if draw(st.booleans()) or draw(st.booleans())}
    no_spill = {reg for reg in vregs if costs.get(reg) == INFINITE
                and draw(st.booleans())}
    return graph, costs, no_spill, machine


def _allocator(cls, machine, no_spill):
    allocator = cls(Function("g"), machine)
    allocator.no_spill = set(no_spill)
    return allocator


def _select_outcome(allocator, graph, stack):
    try:
        assignment, spills = allocator._select(graph, stack)
    except AllocationError as exc:
        return ("error", str(exc))
    return list(assignment.items()), spills


def _adjacency(graph):
    return list(graph._ids.items()), list(graph._adj)


class TestRandomGraphs:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(graphs(), st.randoms(use_true_random=False))
    def test_simplify_and_select_match_oracle(self, case, rng):
        graph, costs, no_spill, machine = case
        shipped = _allocator(ChaitinBriggsAllocator, machine, no_spill)
        oracle = _allocator(OracleChaitinBriggsAllocator, machine, no_spill)
        before = _adjacency(graph)

        stack = shipped._simplify(graph, costs)
        assert stack == oracle._simplify(graph, costs)
        assert _adjacency(graph) == before
        assert ({node for node, _ in stack}
                == {n for n in graph.nodes() if isinstance(n, VirtualReg)})
        assert (_select_outcome(shipped, graph, stack)
                == _select_outcome(oracle, graph, stack))
        # select on any stack order, not only simplify's
        shuffled = list(stack)
        rng.shuffle(shuffled)
        assert (_select_outcome(shipped, graph, shuffled)
                == _select_outcome(oracle, graph, shuffled))


# -- real programs ---------------------------------------------------------------


class _Recording:
    """Records every round's select stack and coloring."""

    def _simplify(self, graph, costs):
        stack = super()._simplify(graph, costs)
        self.rounds_seen.append(list(stack))
        return stack

    def _select(self, graph, stack):
        assignment, spills = super()._select(graph, stack)
        self.rounds_seen.append((list(assignment.items()), list(spills)))
        return assignment, spills


class _Shipped(_Recording, ChaitinBriggsAllocator):
    pass


class _Oracle(_Recording, OracleChaitinBriggsAllocator):
    pass


def _lowered(source, machine):
    prog = compile_source(source)
    optimize_program(prog)
    for fn in prog.functions.values():
        lower_calling_convention(fn, machine)
    return prog


def _allocate(lowered, machine, cls, integrated):
    """Allocate a clone of ``lowered``; returns (program, results,
    per-function round records)."""
    prog = lowered.clone()
    results, rounds = {}, {}
    for name, fn in prog.functions.items():
        if integrated:
            provider = CcmPlacementProvider(fn, (machine.ccm_bytes,),
                                            in_place=True)
            allocator = cls(fn, machine, slot_provider=provider,
                            graph_hook=provider.graph_hook)
        else:
            allocator = cls(fn, machine)
        allocator.rounds_seen = rounds[name] = []
        results[name] = allocator.run()
    return prog, results, rounds


def _check(source, machine, context):
    lowered = _lowered(source, machine)
    for integrated in (False, True):
        where = (context, "integrated" if integrated else "stack")
        eprog, eresults, erounds = _allocate(lowered, machine, _Oracle,
                                             integrated)
        aprog, aresults, arounds = _allocate(lowered, machine, _Shipped,
                                             integrated)
        assert arounds == erounds, where
        assert format_program(aprog) == format_program(eprog), where
        for name, eres in eresults.items():
            ares = aresults[name]
            assert (aprog.functions[name].frame_size
                    == eprog.functions[name].frame_size), (where, name)
            for field in RESULT_FIELDS:
                assert getattr(ares, field) == getattr(eres, field), \
                    (where, name, field)
            assert list(ares.locations) == list(eres.locations), (where, name)


@pytest.mark.parametrize("routine", suite_names())
def test_suite_routine_matches_oracle(routine):
    _check(routine_source(routine), PAPER_MACHINE_512, routine)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fuzz_seed_matches_oracle(seed):
    _check(generate_source(seed), SMALL, seed)


@pytest.mark.fuzz
def test_fuzz_sweep_matches_oracle():
    for seed in SWEEP_SEEDS:
        _check(generate_source(seed), SMALL, seed)


# -- rematerialization -----------------------------------------------------------


REMAT_CASES = """
.func f(%v0)
entry:
    loadI 1 => %v1
    loadI 2 => %v2
    loadI 2 => %v2
    loadI 3 => %v3
    loadI 4 => %v3
    add %v0, %v0 => %v4
    loadI 5 => %v4
    loadI 6 => %v5
    add %v0, %v0 => %v5
    loadG @A => %v6
    loadG @B => %v6
    loadG @A => %v7
    loadG @A => %v7
    loadFI 1.5 => %w1
    loadI 1 => %v8
    loadFI 1.5 => %w2
    loadFI 2.5 => %w2
    ret %v1
.endfunc
"""


def _assert_map_matches_scan(allocator):
    """The one-pass map holds, for every register of the function,
    exactly the template the per-register scan finds."""
    templates = remat_templates(allocator.fn)
    registers = {reg for _, instr in allocator.fn.instructions()
                 for reg in instr.dsts if isinstance(reg, VirtualReg)}
    assert set(templates) <= registers
    for reg in registers:
        assert (templates.get(reg)
                is OracleChaitinBriggsAllocator._remat_template(allocator,
                                                                reg)), reg
    return templates


def test_remat_map_matches_per_register_scan():
    fn = parse_function(REMAT_CASES)
    templates = _assert_map_matches_scan(
        ChaitinBriggsAllocator(fn, PAPER_MACHINE_512))
    assert sorted(reg.name for reg in templates) == [
        "%v1", "%v2", "%v7", "%v8", "%w1"]


class _CheckedRemat(ChaitinBriggsAllocator):
    """Checks the round's template map against the per-register scan
    at every spill round, on the coalesced, partly spilled program."""

    def _remat_templates(self):
        self.remat_rounds += 1
        _assert_map_matches_scan(self)
        return super()._remat_templates()


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_remat_map_matches_scan_at_every_spill_round(seed):
    prog = _lowered(generate_source(seed), SMALL)
    rounds = 0
    for fn in prog.functions.values():
        allocator = _CheckedRemat(fn, SMALL)
        allocator.remat_rounds = 0
        allocator.run()
        rounds += allocator.remat_rounds
    assert rounds, "every tier-1 seed spills on the small geometry"
