"""Tests for the top-level public API (`repro.compile_and_run`) and the
package surface downstream users depend on."""

import pytest

import repro
from repro import (compile_and_run, compile_program, compile_source,
                   MachineConfig, PAPER_MACHINE_512, Simulator, VARIANTS)

SOURCE = """
global A: float[16] = {1.0, 2.0, 3.0, 4.0}
func main(): float {
  var s: float = 0.0
  var i: int = 0
  while (i < 16) { s = s + A[i % 4]; i = i + 1 }
  return s
}
"""


class TestCompileAndRun:
    def test_baseline(self):
        result = compile_and_run(SOURCE)
        assert result.value == 40.0
        assert result.stats.cycles > 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_agree(self, variant):
        assert compile_and_run(SOURCE, variant=variant).value == 40.0

    def test_custom_machine(self):
        machine = MachineConfig(memory_latency=10)
        slow = compile_and_run(SOURCE, machine=machine)
        fast = compile_and_run(SOURCE)
        assert slow.value == fast.value
        assert slow.stats.cycles > fast.stats.cycles

    def test_with_cache(self):
        from repro import DataCache
        from repro.machine import CacheConfig

        cache = DataCache(CacheConfig(size_bytes=256, line_bytes=32,
                                      associativity=1))
        result = compile_and_run(SOURCE, cache=cache)
        assert result.value == 40.0
        assert result.stats.cache is not None
        assert result.stats.cache.accesses > 0

    def test_alternate_entry(self):
        source = SOURCE + "\nfunc other(): float { return 9.5 }\n"
        assert compile_and_run(source, entry="other").value == 9.5

    def test_bad_variant_raises(self):
        with pytest.raises(ValueError):
            compile_and_run(SOURCE, variant="nope")


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_paper_machines_exported(self):
        assert PAPER_MACHINE_512.ccm_bytes == 512

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.ccm
        import repro.frontend
        import repro.harness
        import repro.ir
        import repro.machine
        import repro.opt
        import repro.regalloc
        import repro.workloads
        for module in (repro.analysis, repro.ccm, repro.frontend,
                       repro.harness, repro.ir, repro.machine, repro.opt,
                       repro.regalloc, repro.workloads):
            for name in module.__all__:
                assert getattr(module, name) is not None, \
                    f"{module.__name__}.{name}"

    def test_public_items_documented(self):
        """Deliverable (e): doc comments on every public item."""
        import inspect

        import repro.ccm as ccm
        import repro.ir as ir
        import repro.machine as machine
        import repro.regalloc as regalloc
        for module in (ccm, ir, machine, regalloc):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{module.__name__}.{name} undocumented"
