"""One compile plan per source program: allocate once, derive every
variant as a CCM decision.

The paper's three CCM schemes differ only in where spill slots land
after the same Chaitin-Briggs decisions.  The post-pass "runs after
ordinary register allocation", and under Chaitin-Briggs the integrated
scheme makes the baseline's register decisions at every CCM size
(:class:`~repro.ccm.CcmPlacementProvider`).  So a :class:`CompilePlan`
holds one source program and compiles it under many :class:`PlanKey`\\ s
— (variant, machine, optimize, compaction, allocator, remat) — sharing
everything up to the CCM decision:

* the program is optimized and lowered once per (register geometry,
  optimize) pair, where the geometry is every
  :class:`~repro.machine.MachineConfig` field except ``ccm_bytes``;
* it is allocated once per :class:`Setting` (geometry, optimize,
  allocator, remat).  A Chaitin-Briggs allocation is placed for every
  size in the plan's ``ccm_sizes``; an integrated key at any other size
  gets its own placed snapshot.  The SSA backends' register decisions
  react to placement, so they allocate again per integrated CCM size
  (the ``ssa-integrated`` family);
* each snapshot's spill webs are analyzed once, for every post-pass
  decision and every compaction of it.

A key's CCM work is a *decision* computed from those shared analyses
without touching the IR (:func:`~repro.ccm.decide_postpass`,
:meth:`~repro.ccm.SpillPlacement.decision`).  :meth:`decision_key`
names everything the shared rewrite writes, so keys with equal
decisions compile to identical listings, and :meth:`materialize`
clones the snapshot and rewrites, sets each function's
``ccm_high_water`` and compacts for one key.  :meth:`compile` is the
one-key call.  The difftest lattice materializes once per decision
key; the experiment harness keeps one plan per workload and compiles
its four variants at both CCM sizes from one allocation.

The plan keeps only what later keys read: the source program, the
allocated snapshots with their placements and web analyses, and the
post-pass decisions.  The lowered program is kept only for the SSA
backends, which allocate it again per integrated size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .. import VARIANTS
from ..ccm import (CcmPlacementProvider, PromotionReport, SpillPlacement,
                   WebInterference, allocate_function_integrated,
                   analyze_spill_webs, compact_spill_memory,
                   count_promotions, decide_postpass, rewrite_postpass,
                   stacked_analyses)
from ..ir import Program
from ..machine import MachineConfig
from ..opt import optimize_program
from ..regalloc import (allocate_function, lower_calling_convention,
                        regalloc_engine)

POSTPASS_VARIANTS = ("postpass", "postpass_cg")


class Setting(NamedTuple):
    """What one allocated snapshot depends on."""

    machine: MachineConfig      # the register geometry: ccm_bytes is 0
    optimize: bool
    allocator: Optional[str]
    rematerialize: bool


@dataclass(frozen=True)
class PlanKey:
    """One compiled variant of a plan's program."""

    variant: str                # baseline | postpass | postpass_cg | integrated
    machine: MachineConfig
    optimize: bool = True
    compaction: bool = False
    #: register-allocator backend ("chaitin", "ssa", "ssa-everywhere");
    #: None follows the process-wide REPRO_REGALLOC_ENGINE
    allocator: Optional[str] = None
    rematerialize: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"pick from {VARIANTS}")

    @property
    def ccm_bytes(self) -> int:
        return self.machine.ccm_bytes

    @property
    def setting(self) -> Setting:
        return Setting(replace(self.machine, ccm_bytes=0), self.optimize,
                       self.allocator, self.rematerialize)


def _chaitin(allocator: Optional[str]) -> bool:
    return (allocator or regalloc_engine()) == "chaitin"


class CompilePlan:
    """Shares compilation work across the keys of one source program
    (see the module docstring).  ``program`` is never modified."""

    def __init__(self, program: Program, ccm_sizes: Iterable[int] = ()):
        self.program = program
        #: the CCM sizes every Chaitin-Briggs allocation is placed for
        self.ccm_sizes = tuple(sorted(set(ccm_sizes)))
        #: (geometry, optimize) -> lowered program, SSA backends only
        self._lowered: Dict[tuple, Program] = {}
        #: (setting, placed sizes) -> allocated snapshot
        self._allocated: Dict[tuple, Program] = {}
        #: per snapshot: function name -> its CCM placement
        self._placements: Dict[tuple, Dict[str, SpillPlacement]] = {}
        #: per snapshot: function name -> its spill-web analysis
        self._web_analyses: Dict[tuple, Dict[str, WebInterference]] = {}
        #: per (setting, interprocedural, CCM size): post-pass decision
        self._promotions: Dict[tuple, PromotionReport] = {}
        #: per (setting, CCM size): an SSA backend's integrated program
        self._ssa_integrated: Dict[tuple, Program] = {}

    # -- shared stages -----------------------------------------------------

    def lowered(self, machine: MachineConfig, optimize: bool,
                keep: bool = False) -> Program:
        """A fresh copy of the program, optimized if ``optimize`` and
        lowered for ``machine``'s geometry, for the caller to allocate.
        With ``keep`` the lowered program stays in the plan, so later
        calls clone it instead of optimizing again."""
        geometry = replace(machine, ccm_bytes=0)
        kept = self._lowered.get((geometry, optimize))
        if kept is not None:
            return kept.clone()
        prog = self.program.clone()
        if optimize:
            optimize_program(prog)
        for fn in prog.functions.values():
            lower_calling_convention(fn, geometry)
        if not keep:
            return prog
        self._lowered[geometry, optimize] = prog
        return prog.clone()

    def snapshot(self, setting: Setting,
                 ccm_bytes: Optional[int] = None) -> tuple:
        """The id of the allocated snapshot a key compiles from: the
        shared one, or for a Chaitin-Briggs integrated key at a size
        the plan does not place, one placed for that size alone."""
        if not _chaitin(setting.allocator):
            return (setting, ())
        if ccm_bytes is None or ccm_bytes in self.ccm_sizes:
            return (setting, self.ccm_sizes)
        return (setting, (ccm_bytes,))

    def allocated(self, setting: Setting,
                  sizes: Optional[Tuple[int, ...]] = None) -> Program:
        """The setting's stack-spilling allocation, placed for ``sizes``
        (default: the plan's shared snapshot)."""
        snapshot = (self.snapshot(setting) if sizes is None
                    else (setting, sizes))
        if snapshot not in self._allocated:
            sizes = snapshot[1]
            prog = self.lowered(setting.machine, setting.optimize,
                                keep=not _chaitin(setting.allocator))
            placements: Dict[str, SpillPlacement] = {}
            for fn in prog.functions.values():
                if sizes:
                    provider = CcmPlacementProvider(fn, sizes)
                    allocate_function(fn, setting.machine,
                                      slot_provider=provider,
                                      graph_hook=provider.graph_hook,
                                      rematerialize=setting.rematerialize,
                                      engine=setting.allocator)
                    placements[fn.name] = provider.placement
                else:
                    allocate_function(fn, setting.machine,
                                      rematerialize=setting.rematerialize,
                                      engine=setting.allocator)
            self._allocated[snapshot] = prog
            self._placements[snapshot] = placements
        return self._allocated[snapshot]

    def placements(self, snapshot: tuple) -> Dict[str, SpillPlacement]:
        """Each function's CCM placement in an allocated snapshot."""
        self.allocated(*snapshot)
        return self._placements[snapshot]

    def web_analyses(self, snapshot: tuple) -> Dict[str, WebInterference]:
        """Each function's spill-web analysis of an allocated snapshot,
        shared by every post-pass decision and compaction placed from
        it."""
        if snapshot not in self._web_analyses:
            self._web_analyses[snapshot] = {
                name: analyze_spill_webs(fn)
                for name, fn in self.allocated(*snapshot).functions.items()}
        return self._web_analyses[snapshot]

    def promotion(self, key: PlanKey) -> PromotionReport:
        """A post-pass key's decision, placed from the shared snapshot."""
        setting = key.setting
        interprocedural = key.variant == "postpass_cg"
        memo = (setting, interprocedural, key.ccm_bytes)
        if memo not in self._promotions:
            snapshot = self.snapshot(setting)
            self._promotions[memo] = decide_postpass(
                self.allocated(*snapshot), self.web_analyses(snapshot),
                key.ccm_bytes, interprocedural)
        return self._promotions[memo]

    def _ssa_allocated(self, key: PlanKey) -> Program:
        """An SSA backend's integrated allocation at the key's CCM size:
        its register decisions react to placement, so it is not placed
        from the shared snapshot."""
        setting = key.setting
        memo = (setting, key.ccm_bytes)
        if memo not in self._ssa_integrated:
            prog = self.lowered(setting.machine, setting.optimize, keep=True)
            for fn in prog.functions.values():
                allocate_function_integrated(
                    fn, key.machine, engine=key.allocator,
                    rematerialize=key.rematerialize)
            self._ssa_integrated[memo] = prog
        return self._ssa_integrated[memo]

    # -- decide, then materialize ------------------------------------------

    def decision_key(self, key: PlanKey) -> tuple:
        """(snapshot, family, decision, compaction): equal decision keys
        give identical listings and frame sizes.

        The family is the rewrite that applies the decision —
        ``postpass`` (either variant: promoted web -> CCM offset),
        ``integrated`` (the allocation's stack offset -> location, and
        frame size), ``baseline``, which every decision that moves
        nothing joins, or ``ssa-integrated``, an SSA backend's own
        allocation at the key's CCM size (the decision is that size).
        Each function's ``ccm_high_water`` is not part of the key: a
        post-pass key's own decision sets it after the rewrite."""
        setting = key.setting
        if key.variant == "integrated" and not _chaitin(key.allocator):
            return (setting, "ssa-integrated", key.ccm_bytes,
                    key.compaction)
        if key.variant == "integrated":
            snapshot = self.snapshot(setting, key.ccm_bytes)
            placements = self.placements(snapshot)
            decision = tuple(placement.decision(key.ccm_bytes)
                             for placement in placements.values())
        elif key.variant in POSTPASS_VARIANTS:
            snapshot = self.snapshot(setting)
            report = self.promotion(key)
            decision = tuple(tuple(sorted(promotion.offsets.items()))
                             for promotion in report.functions.values())
        else:
            snapshot = self.snapshot(setting)
            decision = ()
        if not any(decision):
            return (snapshot, "baseline", (), key.compaction)
        family = "integrated" if key.variant == "integrated" \
            else "postpass"
        return (snapshot, family, decision, key.compaction)

    def materialize(self, key: PlanKey, decision_key: tuple) -> Program:
        """A fresh program compiled under ``key``, whose
        :meth:`decision_key` is ``decision_key`` (not yet verified):
        the snapshot cloned, the decision rewritten in, compacted if
        the key compacts."""
        snapshot, family, _, compaction = decision_key
        if family == "ssa-integrated":
            program = self._ssa_allocated(key).clone()
        else:
            program = self.allocated(*snapshot).clone()
        report = None
        if key.variant in POSTPASS_VARIANTS:
            # promotes nothing under the baseline family, but still
            # sets each function's ccm_high_water
            report = self.promotion(key)
            rewrite_postpass(program, report)
        elif family == "integrated":
            placements = self.placements(snapshot)
            for fn in program.functions.values():
                placements[fn.name].materialize(fn, key.ccm_bytes)
        if compaction:
            #: per function: the snapshot's web analysis narrowed to the
            #: webs compaction re-colors; an integrated rewrite re-packs
            #: the stack, so its compaction analyzes the result afresh
            stacked: Dict[str, WebInterference] = {}
            if family in ("baseline", "postpass"):
                stacked = stacked_analyses(self.web_analyses(snapshot),
                                           report)
            for fn in program.functions.values():
                compact_spill_memory(fn, analysis=stacked.get(fn.name))
        return program

    def compile(self, key: PlanKey) -> Program:
        """One key's program (not yet verified); a post-pass key counts
        its promotions on the installed trace recorder."""
        program = self.materialize(key, self.decision_key(key))
        if key.variant in POSTPASS_VARIANTS:
            count_promotions(self.promotion(key).functions.values())
        return program
