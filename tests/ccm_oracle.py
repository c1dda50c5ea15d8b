"""The per-size integrated Chaitin-Briggs allocator: the test oracle for
:class:`repro.ccm.CcmPlacementProvider`.

This is the integrated scheme exactly as section 3.2 describes it: a
Chaitin-Briggs run per CCM size whose spill step places each value into
the CCM as it goes, with CCM locations as pseudo nodes of the
interference graph.  The shipped allocator allocates once and places
per size; the equivalence suite holds the two bit-identical.
"""

from repro.ccm import CcmGraphHook, IntegratedCcmSlotProvider
from repro.regalloc import ChaitinBriggsAllocator


class IntegratedCcmAllocator(ChaitinBriggsAllocator):
    """A Chaitin-Briggs allocator with the CCM plugged in: Figure 2 with
    the emboldened steps implemented by the classic hook and provider."""

    def __init__(self, fn, machine, manager=None, rematerialize=True):
        super().__init__(fn, machine,
                         slot_provider=IntegratedCcmSlotProvider(fn, machine),
                         graph_hook=CcmGraphHook(),
                         rematerialize=rematerialize, manager=manager)


def allocate_integrated_oracle(fn, machine, rematerialize=True):
    """Allocate ``fn`` in place with the per-size oracle."""
    return IntegratedCcmAllocator(fn, machine,
                                  rematerialize=rematerialize).run()
