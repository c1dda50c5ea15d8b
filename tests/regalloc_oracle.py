"""Test oracle for the Chaitin-Briggs simplify, select and
rematerialization steps: the historical loops, verbatim.

* ``_simplify`` rebuilds its list of trivially colorable nodes on every
  sweep and runs ``min`` over every removable node on a blocked step.
  The shipped worklist simplify must remove the same nodes in the same
  order, with the same potential-spill marks.
* ``_select`` collects the colors of a node's colored neighbors into a
  set and takes the first free one.  The shipped select keeps one mask
  per color and must give the same assignment and spill list.
* ``_remat_template`` scans the whole function for one spilled register,
  after every earlier register of the round has been rematerialized.
  The shipped allocator builds one template map per spill round.

:class:`OracleChaitinBriggsAllocator` plugs all three into the shipped
allocator, which supplies everything else (build, coalesce, costs,
spill code); the equivalence suite holds the two bit-identical.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import Instruction, Opcode, PhysReg, VirtualReg
from repro.regalloc import ChaitinBriggsAllocator
from repro.regalloc.chaitin_briggs import AllocationError
from repro.regalloc.interference import InterferenceGraph


class _PerRegisterTemplates:
    """The shipped ``templates.get(reg)`` lookup, answered by a fresh
    whole-function scan at the moment of each call."""

    def __init__(self, allocator: "OracleChaitinBriggsAllocator"):
        self.allocator = allocator

    def get(self, reg) -> Optional[Instruction]:
        return self.allocator._remat_template(reg)


class OracleChaitinBriggsAllocator(ChaitinBriggsAllocator):
    """The shipped allocator with the historical simplify, select and
    per-register rematerialization lookup."""

    def _remat_templates(self) -> _PerRegisterTemplates:
        return _PerRegisterTemplates(self)

    def _simplify(self, graph: InterferenceGraph, costs) -> List[Tuple]:
        """Remove nodes, cheapest-first when blocked (optimistic spilling).

        Returns the select stack of (node, potential_spill) pairs.

        All degree bookkeeping lives in graph-id space (a flat list
        indexed by node id, decremented with an inlined low-bit loop):
        this inner loop runs once per (node, neighbor) edge and is the
        hottest code in the allocator.  The ``removable`` *set* of nodes
        is kept as the iteration source for candidate selection so the
        removal order — and hence coloring and tie-breaks — is exactly
        the historical one."""
        ids = graph._ids
        adj = graph._adj
        vreg_mask = graph.vreg_mask
        pseudo_mask = graph.pseudo_mask
        deg = [0] * len(graph._node_list)
        kof: Dict[object, int] = {}
        removable: Set = set()
        for node in graph.nodes():
            if isinstance(node, VirtualReg):
                removable.add(node)
                i = ids[node]
                deg[i] = (adj[i] & ~pseudo_mask).bit_count()
                kof[node] = self._k(node.rclass)
        stack: List[Tuple] = []

        def remove(node, potential: bool) -> None:
            stack.append((node, potential))
            removable.discard(node)
            mask = adj[ids[node]] & vreg_mask
            while mask:
                low = mask & -mask
                deg[low.bit_length() - 1] -= 1
                mask ^= low

        while removable:
            trivially = [n for n in removable if deg[ids[n]] < kof[n]]
            if trivially:
                for node in trivially:
                    remove(node, potential=False)
                continue
            # blocked: choose the cheapest spill candidate (cost / degree)
            best = min(removable,
                       key=lambda n: (costs.get(n, 0.0)
                                      / max(deg[ids[n]], 1)))
            remove(best, potential=True)
        return stack

    def _select(self, graph: InterferenceGraph, stack: List[Tuple]):
        assignment: Dict[VirtualReg, PhysReg] = {}
        actual_spills: List[VirtualReg] = []
        ids = graph._ids
        adj = graph._adj
        node_list = graph._node_list
        phys_mask = graph.phys_mask
        # color_of[j]: the color occupied by node j — the register index
        # for a physical node, the assigned color for a colored vreg.
        color_of = [0] * len(node_list)
        pm = phys_mask
        while pm:
            low = pm & -pm
            j = low.bit_length() - 1
            color_of[j] = node_list[j].index
            pm ^= low
        assigned_mask = 0
        for node, potential in reversed(stack):
            k = self._k(node.rclass)
            i = ids[node]
            taken: Set[int] = set()
            mask = adj[i] & (phys_mask | assigned_mask)
            while mask:
                low = mask & -mask
                taken.add(color_of[low.bit_length() - 1])
                mask ^= low
            color = next((c for c in range(k) if c not in taken), None)
            if color is None:
                if node in self.no_spill:
                    raise AllocationError(
                        f"{self.fn.name}: spill temporary {node} is "
                        f"uncolorable; register pressure exceeds the machine")
                actual_spills.append(node)
            else:
                assignment[node] = PhysReg(color, node.rclass)
                color_of[i] = color
                assigned_mask |= 1 << i
        return assignment, actual_spills

    def _remat_template(self, reg) -> Optional[Instruction]:
        """The constant-load instruction to clone per use, or None."""
        if not self.rematerialize:
            return None
        remat_ops = (Opcode.LOADI, Opcode.LOADFI, Opcode.LOADG)
        template: Optional[Instruction] = None
        for _, instr in self.fn.instructions():
            if reg not in instr.dsts:
                continue
            if instr.opcode not in remat_ops:
                return None
            if template is None:
                template = instr
            elif (instr.opcode is not template.opcode
                  or instr.imm != template.imm
                  or instr.symbol != template.symbol):
                return None
        return template
