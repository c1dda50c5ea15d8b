"""Units for the dense bitset dataflow layer and the analysis cache.

The bitset engine (``repro.analysis.bitset``) is the liveness/
interference backend; the set-based code is kept as a reference oracle
in ``liveness_oracle.py``.  These tests pin the primitives the engine
is built from and the manager's caching contract; the end-to-end
bitset-vs-oracle equivalence lives in ``test_bitset_oracle_fuzz.py``.
"""

from liveness_oracle import compute_liveness_sets

from repro.analysis import (CFG, AnalysisManager, DenseIndex,
                            compute_liveness, compute_liveness_masks,
                            iter_bits)
from repro.analysis.bitset import MaskSetView
from repro.ir import RegClass, VirtualReg, parse_function
from repro.trace import TraceRecorder, recording


def _v(i, rc=RegClass.INT):
    return VirtualReg(i, rc)


DIAMOND = """
.func f(%v0)
entry:
    loadI 10 => %v1
    cbr %v0 -> left, right
left:
    addI %v0, 1 => %v3
    jump -> join
right:
    addI %v0, 2 => %v4
    jump -> join
join:
    phi [%v3, left], [%v4, right] => %v5
    add %v5, %v1 => %v6
    ret %v6
.endfunc
"""


class TestIterBits:
    def test_empty_mask(self):
        assert list(iter_bits(0)) == []

    def test_ascending_order(self):
        mask = (1 << 0) | (1 << 3) | (1 << 17) | (1 << 64) | (1 << 200)
        assert list(iter_bits(mask)) == [0, 3, 17, 64, 200]

    def test_roundtrip(self):
        bits = {1, 5, 63, 64, 65, 1000}
        mask = 0
        for b in bits:
            mask |= 1 << b
        assert set(iter_bits(mask)) == bits


class TestDenseIndex:
    def test_ids_are_dense_and_deterministic(self):
        fn = parse_function(DIAMOND)
        index = DenseIndex(fn)
        n = len(fn.all_registers())
        assert sorted(index.ids.values()) == list(range(n))
        again = DenseIndex(fn)
        assert again.ids == index.ids

    def test_mask_set_roundtrip(self):
        fn = parse_function(DIAMOND)
        index = DenseIndex(fn)
        regs = {_v(0), _v(3), _v(5)}
        assert index.set_of(index.mask_of(regs)) == regs

    def test_class_masks_partition_registers(self):
        fn = parse_function(DIAMOND)
        index = DenseIndex(fn)
        all_mask = (1 << len(index.regs)) - 1
        assert (index.class_mask[RegClass.INT]
                | index.class_mask[RegClass.FLOAT]) == all_mask
        assert (index.class_mask[RegClass.INT]
                & index.class_mask[RegClass.FLOAT]) == 0


class TestMaskSetView:
    def test_behaves_like_a_set(self):
        fn = parse_function(DIAMOND)
        index = DenseIndex(fn)
        regs = {_v(1), _v(4)}
        view = MaskSetView(index.mask_of(regs), index)
        assert len(view) == 2
        assert _v(1) in view and _v(4) in view
        assert _v(0) not in view
        assert set(view) == regs
        assert bool(view)
        assert not MaskSetView(0, index)


class TestBitLivenessMasks:
    def test_matches_set_oracle_on_diamond(self):
        fn = parse_function(DIAMOND)
        cfg = CFG(fn)
        bits = compute_liveness_masks(fn, cfg)
        oracle = compute_liveness_sets(fn, cfg)
        for block in fn.blocks:
            label = block.label
            assert bits.index.set_of(bits.live_in[label]) \
                == oracle.live_in[label], label
            assert bits.index.set_of(bits.live_out[label]) \
                == oracle.live_out[label], label

    def test_phi_source_charged_to_predecessor_only(self):
        fn = parse_function(DIAMOND)
        bits = compute_liveness_masks(fn, CFG(fn))
        index = bits.index
        # %v3 flows into the phi from 'left': live out of left,
        # not live out of right
        assert index.id_of(_v(3)) in set(iter_bits(bits.live_out["left"]))
        assert index.id_of(_v(3)) not in set(iter_bits(bits.live_out["right"]))


class TestEngineSelection:
    """One engine: the public API is the bitset engine, and it agrees
    with the set oracle."""

    def test_default_is_bitset(self):
        info = compute_liveness(parse_function(DIAMOND))
        assert info.bits is not None
        assert set(info.live_in["entry"]) == info.bits.index.set_of(
            info.bits.live_in["entry"])

    def test_both_engines_agree_via_public_api(self):
        fn = parse_function(DIAMOND)
        a = compute_liveness(fn)
        b = compute_liveness_sets(fn)
        for block in fn.blocks:
            assert set(a.live_in[block.label]) == set(b.live_in[block.label])
            assert set(a.live_out[block.label]) == set(b.live_out[block.label])


class TestAnalysisManager:
    def test_caches_and_counts(self):
        fn = parse_function(DIAMOND)
        manager = AnalysisManager(fn)
        with recording(TraceRecorder()) as rec:
            first = manager.cfg()
            assert manager.cfg() is first
            live = manager.liveness()
            assert manager.liveness() is live
            assert manager.dominators() is manager.dominators()
            assert manager.loops() is manager.loops()
        assert rec.counters.get("analysis.cache_hit", 0) >= 4
        assert rec.counters.get("analysis.cache_miss", 0) >= 2

    def test_instr_invalidation_keeps_cfg(self):
        fn = parse_function(DIAMOND)
        manager = AnalysisManager(fn)
        cfg = manager.cfg()
        live = manager.liveness()
        manager.invalidate(cfg=False)
        assert manager.cfg() is cfg          # CFG facts survive
        assert manager.liveness() is not live  # instruction facts do not

    def test_cfg_invalidation_drops_everything(self):
        fn = parse_function(DIAMOND)
        manager = AnalysisManager(fn)
        cfg = manager.cfg()
        dom = manager.dominators()
        manager.invalidate(cfg=True)
        assert manager.cfg() is not cfg
        assert manager.dominators() is not dom
