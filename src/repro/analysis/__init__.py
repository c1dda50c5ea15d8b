"""Program analyses: CFG, dominators, liveness, loops, SSA, call graph."""

from .bitset import BitLiveness, DenseIndex, compute_liveness_masks, iter_bits
from .callgraph import CallGraph, tarjan_sccs
from .cfg import CFG, remove_unreachable_blocks, split_critical_edges
from .chordal import (adjacency_of, find_perfect_elimination_order,
                      is_chordal, is_perfect_elimination_order,
                      max_clique_size, maximum_cardinality_search)
from .defuse import DefUse
from .dominators import DominatorTree
from .liveness import (LivenessInfo, compute_liveness,
                       values_live_across_calls)
from .loops import Loop, LoopInfo
from .manager import AnalysisManager
from .nextuse import (INFINITE_DISTANCE, LOOP_EXIT_PENALTY,
                      compute_next_use_out)
from .ssa import build_ssa, destroy_ssa, is_ssa

__all__ = [
    "AnalysisManager", "BitLiveness", "CallGraph", "CFG", "DenseIndex",
    "tarjan_sccs",
    "remove_unreachable_blocks", "split_critical_edges", "DefUse",
    "DominatorTree", "LivenessInfo", "compute_liveness",
    "compute_liveness_masks", "iter_bits", "values_live_across_calls",
    "Loop", "LoopInfo",
    "INFINITE_DISTANCE", "LOOP_EXIT_PENALTY", "compute_next_use_out",
    "build_ssa", "destroy_ssa", "is_ssa",
    "adjacency_of", "find_perfect_elimination_order", "is_chordal",
    "is_perfect_elimination_order", "max_clique_size",
    "maximum_cardinality_search",
]
