"""Unit tests for the integrated allocator's graph hook: CCM locations
as pseudo-nodes with the liveness-derived edges of section 3.2."""

import pytest

from liveness_oracle import build_interference_graph_sets

from repro.ccm import CcmGraphHook, CcmLocation
from repro.ir import RegClass, VirtualReg, parse_function
from repro.machine import PAPER_MACHINE_512
from repro.regalloc import build_interference_graph
from repro.regalloc.interference import PseudoNode


def _v(i, rc=RegClass.INT):
    return VirtualReg(i, rc)


def _graph(text):
    fn = parse_function(text)
    return build_interference_graph(fn, PAPER_MACHINE_512, CcmGraphHook())


class TestPseudoEdges:
    def test_register_live_across_ccm_span_gets_edge(self):
        graph = _graph("""
.func f()
entry:
    loadI 7 => %v0
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""")
        loc = CcmLocation(0, 4)
        # %v0 is live at the ccm store -> edge to the location
        assert loc in graph.neighbors(_v(0))

    def test_register_defined_inside_span_gets_edge(self):
        graph = _graph("""
.func f()
entry:
    loadI 1 => %v1
    ccmst %v1 => [0]
    loadI 7 => %v0
    ccmld [0] => %v2
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""")
        assert CcmLocation(0, 4) in graph.neighbors(_v(0))

    def test_register_outside_span_has_no_edge(self):
        graph = _graph("""
.func f()
entry:
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    loadI 7 => %v0
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""")
        assert CcmLocation(0, 4) not in graph.neighbors(_v(0))

    def test_span_crosses_blocks(self):
        graph = _graph("""
.func f(%v9)
entry:
    loadI 7 => %v0
    loadI 1 => %v1
    ccmst %v1 => [8]
    cbr %v9 -> a, b
a:
    jump -> b
b:
    ccmld [8] => %v2
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""")
        loc = CcmLocation(8, 4)
        assert loc in graph.neighbors(_v(0))

    def test_cross_class_edges_exist(self):
        """A float register overlapping an int CCM location conflicts
        (byte ranges are class-agnostic) — the bug class behind the
        twldrv miscompilation found during development."""
        graph = _graph("""
.func f()
entry:
    loadFI 1.0 => %w0
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    fadd %w0, %w0 => %w1
    add %v2, %v2 => %v3
    ret %v3
.endfunc
""")
        assert CcmLocation(0, 4) in graph.neighbors(_v(0, RegClass.FLOAT))


class TestPseudoInvisibility:
    def test_pseudo_nodes_are_marked(self):
        assert isinstance(CcmLocation(0, 4), PseudoNode)

    def test_locations_identified_by_range(self):
        graph = _graph("""
.func f()
entry:
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    loadI 2 => %v3
    ccmst %v3 => [0]
    ccmld [0] => %v4
    add %v2, %v4 => %v5
    ret %v5
.endfunc
""")
        locations = [n for n in graph.nodes()
                     if isinstance(n, CcmLocation)]
        # both spans use the same byte range -> one pseudo node
        assert locations == [CcmLocation(0, 4)]

    def test_different_sizes_distinct_nodes(self):
        # %v0 is live across both spans, so both locations get edges
        graph = _graph("""
.func f()
entry:
    loadI 9 => %v0
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    loadFI 1.0 => %w0
    fccmst %w0 => [8]
    fccmld [8] => %w1
    fadd %w1, %w1 => %w2
    add %v2, %v0 => %v3
    ret %v3
.endfunc
""")
        locations = {n for n in graph.nodes() if isinstance(n, CcmLocation)}
        assert locations == {CcmLocation(0, 4), CcmLocation(8, 8)}

    def test_edge_free_location_stays_out_of_graph(self):
        """A CCM span overlapping nothing constrains nobody, so the
        hook adds no node for it — by design."""
        graph = _graph("""
.func f()
entry:
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    ret %v2
.endfunc
""")
        assert CcmLocation(0, 4) not in graph.nodes()


# the CCM spans above, as stack spill code: the slot hook must draw the
# same value<->location edges from them as the CCM hook does
TWIN_CASES = [
    """
.func f()
entry:
    loadI 7 => %v0
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""", """
.func f()
entry:
    loadI 1 => %v1
    ccmst %v1 => [0]
    loadI 7 => %v0
    ccmld [0] => %v2
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""", """
.func f(%v9)
entry:
    loadI 7 => %v0
    loadI 1 => %v1
    ccmst %v1 => [8]
    cbr %v9 -> a, b
a:
    jump -> b
b:
    ccmld [8] => %v2
    add %v0, %v2 => %v3
    ret %v3
.endfunc
""", """
.func f()
entry:
    loadI 9 => %v0
    loadI 1 => %v1
    ccmst %v1 => [0]
    ccmld [0] => %v2
    loadFI 1.0 => %w0
    fccmst %w0 => [8]
    fccmld [8] => %w1
    fadd %w1, %w1 => %w2
    add %v2, %v0 => %v3
    ret %v3
.endfunc
""", """
.func f(%v9)
entry:
    loadI 1 => %v1
    ccmst %v1 => [4]
    jump -> head
head:
    ccmld [4] => %v2
    addI %v2, 1 => %v3
    ccmst %v3 => [4]
    loadI 5 => %v0
    cbr %v9 -> head, done
done:
    ccmld [4] => %v4
    add %v4, %v0 => %v5
    ret %v5
.endfunc
""",
]


def _as_stack(text):
    for ccm, stack in (("fccmst", "fspill"), ("fccmld", "freload"),
                       ("ccmst", "spill"), ("ccmld", "reload")):
        text = text.replace(ccm, stack)
    return text


@pytest.fixture(params=("bitset", "sets"))
def build(request):
    """The shipped interference builder, or the set-based oracle."""
    if request.param == "sets":
        return build_interference_graph_sets
    return build_interference_graph


class TestSpillSlotHook:
    """The stack-slot twin of the CCM hook (allocate once, place per
    size): one tracked slot per CCM-placed value."""

    @pytest.mark.parametrize("case", range(len(TWIN_CASES)))
    def test_same_edges_as_ccm_hook(self, build, case):
        from repro.ccm import SpillSlotHook
        from repro.ccm.integrated import SpillSlot

        text = TWIN_CASES[case]
        ccm_graph = _graph(text)
        fn = parse_function(_as_stack(text))
        hook = SpillSlotHook()
        for loc in [n for n in ccm_graph.nodes()
                    if isinstance(n, CcmLocation)]:
            hook.track(loc.offset, owner=f"owner{loc.offset}")
        slot_graph = build(fn, PAPER_MACHINE_512, hook)
        for node in ccm_graph.nodes():
            if isinstance(node, PseudoNode):
                continue
            expected = {n.offset for n in ccm_graph.neighbors(node)
                        if isinstance(n, CcmLocation)}
            actual = {n.offset for n in slot_graph.neighbors(node)
                      if isinstance(n, SpillSlot)}
            assert actual == expected, node
            assert {f"owner{o}" for o in actual} == set(
                hook.owners_adjacent(node, slot_graph))

    def test_untracked_slots_add_nothing(self, build):
        from repro.ccm import SpillSlotHook

        fn = parse_function(_as_stack(TWIN_CASES[0]))
        hook = SpillSlotHook()
        graph = build(fn, PAPER_MACHINE_512, hook)
        assert graph.pseudo_mask == 0
        assert not any(isinstance(n, PseudoNode) for n in graph.nodes())


class TestHookProtocol:
    TEXT = TWIN_CASES[0]

    def test_type_error_inside_begin_propagates(self, build):
        """A hook's own TypeError is a bug to surface, not a signal to
        retry with another signature."""
        class Broken:
            def __init__(self):
                self.begins = 0

            def begin(self, fn, graph, manager):
                self.begins += 1
                raise TypeError("broken hook")

            def visit(self, label, instr, live_after, graph):
                pass

        hook = Broken()
        with pytest.raises(TypeError, match="broken hook"):
            build(parse_function(self.TEXT),
                                     PAPER_MACHINE_512, hook)
        assert hook.begins == 1

    def test_begin_false_skips_visits(self, build):
        class Idle:
            visits = 0

            def begin(self, fn, graph, manager):
                return False

            def visit(self, label, instr, live_after, graph):
                self.visits += 1

        hook = Idle()
        build(parse_function(self.TEXT),
                                 PAPER_MACHINE_512, hook)
        assert hook.visits == 0
