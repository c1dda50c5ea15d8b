"""First-fit byte-offset assignment for spill webs.

Models the paper's location search (section 3.1): "It starts at the
beginning of the CCM and tries successive locations until it finds one
that will work — that is, a location not used by any interference-graph
neighbor of the spilled value", generalized with a per-web minimum
offset (the interprocedural 'beginning address': the maximum high-water
mark over calls the web is live across).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .mem_liveness import WebInterference
from .slots import SpillWeb


def _overlaps(a_start: int, a_size: int, b_start: int, b_size: int) -> bool:
    return a_start < b_start + b_size and b_start < a_start + a_size


def first_fit_offset(web: SpillWeb, neighbors_placed: List[Tuple[int, int]],
                     capacity: Optional[int], min_start: int = 0) -> Optional[int]:
    """Lowest offset >= min_start avoiding placed neighbors, aligned to
    the web's size; None when the web does not fit ``capacity``."""
    size = web.size
    offset = (min_start + size - 1) & ~(size - 1)
    intervals = sorted(neighbors_placed)
    moved = True
    while moved:
        moved = False
        for start, isize in intervals:
            if _overlaps(offset, size, start, isize):
                offset = (start + isize + size - 1) & ~(size - 1)
                moved = True
    if capacity is not None and offset + size > capacity:
        return None
    return offset


def assign_webs(webs: Iterable[SpillWeb], interference: WebInterference,
                capacity: Optional[int],
                min_start: Dict[int, int] = None,
                order_by_cost: bool = True) -> Dict[int, int]:
    """Place webs by first fit; returns {web_id: offset} for those that fit.

    Webs are considered most-expensive-first (the loop-weighted spill
    cost), so when the CCM fills up the cheap webs are the ones left as
    heavyweight stack spills — the profitable promotions happen first.
    """
    min_start = min_start or {}
    ordered = list(webs)
    if order_by_cost:
        ordered.sort(key=lambda w: (-interference.costs.get(w.web_id, 0.0),
                                    w.web_id))
    by_id = {w.web_id: w for w in interference.webs}
    placed: Dict[int, int] = {}
    for web in ordered:
        neighbor_intervals = [(placed[other_id], by_id[other_id].size)
                              for other_id in
                              interference.neighbors(web.web_id)
                              if other_id in placed]
        offset = first_fit_offset(web, neighbor_intervals, capacity,
                                  min_start.get(web.web_id, 0))
        if offset is not None:
            placed[web.web_id] = offset
    return placed
