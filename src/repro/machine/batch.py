"""Batched multi-config simulation: one decoded program, N machines.

A difftest lattice (and the section 4.3 ablation grid) executes the
*same compiled code* under many machine-parameter points — only ~18% of
decoded programs in a sweep are unique.  A scalar run pays the decode
and the full per-instruction dispatch cost once per config.  A batch
pays them once:

* **Architectural sharing.**  Two machine configurations produce the
  same values, memory image, control flow, and traps whenever they
  agree on every architecturally-visible parameter: the register-file
  geometry (``n_int_regs``/``n_float_regs``/``callee_saved_start``,
  which also fixes the caller-saved poison set).  Latencies are
  timing, not architecture.  :func:`arch_signature` captures exactly
  this; a :class:`BatchSimulation` requires all members to share it
  and runs the program **once** through the simulator's driver
  (:func:`repro.machine.predecode.drive`).
* **Optimistic CCM sharing.**  ``ccm_bytes`` is observable only
  through the CCM bounds trap, and the trap offset depends on the
  *dynamic* CCM base — so whether two limits diverge cannot be decided
  statically.  Instead of splitting batches up front (a difftest
  lattice compiles identical code for several CCM sizes, so that would
  forfeit ~40% of the grouping), the shared pass runs under the
  **largest** member limit and validates afterwards: the engine
  already tracks the CCM high-water mark, and a member with limit L
  executed identically iff the watermark stayed below L.  When the
  watermark reaches some member's limit — or the pass traps with mixed
  limits on board, since CCM trap messages render the limit — the pass
  raises :class:`BatchSplit` and the caller re-dispatches each
  same-limit class as its own strict batch.
* **Per-member timing fan-out.**  The driver's cycle
  accounting is already lazy (``op_cycles = (instructions - mem_ops) *
  default_latency``; memory cycles from per-access latencies), so each
  member's :class:`RunStats` is assembled after the fact from the
  shared dynamic counts and its own latencies — bit-identical to a
  scalar run of that member.
* **Batched caches.**  Cache simulation is pure address-stream
  processing, so :class:`BatchedCaches` advances one
  :class:`~.cache.DataCache` per cached member over the one
  architectural address stream, with per-member latency accumulators.

Every member rides the shared pass: the simulator has one timing model
(each instruction charges its latency up front, with no interlocks), so
no machine configuration needs a run of its own.

Bit-identity with scalar :class:`~.simulator.Simulator` runs is a hard
contract enforced by ``tests/test_sim_batch_fuzz.py`` (batch vs scalar
vs the reference interpreter) and the property suite in
``tests/test_sim_batch_properties.py``.  The difftest lattice and the
section 4.3 ablation grid always simulate through this module.
"""

from __future__ import annotations

import hashlib
import marshal
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (Dict, Hashable, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..ir import Opcode, Program
from ..ir.operands import VirtualReg
from ..trace import current as _trace_current
from .cache import CacheConfig, CacheStats, DataCache
from .predecode import drive, run_stats
from .simulator import RunResult, SimulationError, Simulator, count_run
from .target import MachineConfig

__all__ = ["BatchMember", "BatchSimulation", "BatchSplit", "BatchedCaches",
           "arch_signature", "program_fingerprint", "program_uses_ccm"]

#: opcodes whose behavior reads ``ccm_bytes`` (the bounds trap)
_CCM_OPS = frozenset((Opcode.CCMST, Opcode.FCCMST,
                      Opcode.CCMLD, Opcode.FCCMLD))


def program_uses_ccm(program: Program) -> bool:
    """Whether any instruction can observe ``ccm_bytes``."""
    for fn in program.functions.values():
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.opcode in _CCM_OPS:
                    return True
    return False


def arch_signature(machine: MachineConfig) -> Tuple[int, ...]:
    """The architecturally-visible slice of a machine configuration.

    Members of one batch must agree on this; everything else
    (latencies, ``n_args``) only affects timing and is fanned out per
    member.  ``ccm_bytes`` is deliberately *not*
    part of the signature even though the CCM bounds trap can observe
    it: the shared pass runs under the largest member limit and
    validates against the dynamic CCM high-water mark afterwards,
    raising :class:`BatchSplit` in the (rare) case the limits actually
    diverge.
    """
    return (machine.n_int_regs, machine.n_float_regs,
            machine.callee_saved_start)


class BatchSplit(Exception):
    """One shared pass cannot serve every member of this batch.

    Members with different ``ccm_bytes`` batch optimistically: the
    pass runs under the largest limit and is valid for a member with
    limit L iff the observed CCM high-water mark stayed below L.  When
    the watermark reaches some member's limit, or the pass traps with
    mixed limits on board (CCM trap messages render the limit, so even
    an architecturally-shared trap is not textually shared), the
    per-member outcomes genuinely diverge by limit class.  ``groups``
    holds the member *positions* partitioned by ``ccm_bytes`` in
    insertion order — re-dispatch each as its own (now single-limit,
    therefore strict) :class:`BatchSimulation`.
    """

    def __init__(self, groups: List[List[int]]):
        super().__init__(
            "batch members diverge by ccm_bytes; re-dispatch per group")
        self.groups = groups


#: Opcode -> small int in *definition order*, which is part of the
#: source tree and therefore stable across processes (unlike enum
#: ``__hash__``, which follows the member-name string hash)
_OP_IDS = {op: n for n, op in enumerate(Opcode)}


def _encode(program: Program) -> list:
    """One pass over the program: the digestible content, as one flat
    list of atoms with a length before every variable-length run (so
    the flattening stays unambiguous).

    The encoding covers every execution-relevant
    :class:`~..ir.instructions.Instruction` slot — everything except
    ``comment``, which cannot affect execution or statistics — plus
    function frames, parameters, and global-array images.  Registers
    are encoded by their cached ``_hash`` (``hash((index, rclass))``,
    PYTHONHASHSEED-stable because :class:`~..ir.operands.RegClass` pins
    its hash and int/tuple hashing is deterministic) next to a
    virtual-operand bitmask: a ``VirtualReg`` and ``PhysReg`` of equal
    index intentionally share a hash, and turning one into the other is
    exactly what register allocation does, so the mask must tell them
    apart.  A structural encoding rather than the formatted listing
    because a sweep fingerprints every compiled config and the textual
    printer is ~10x more expensive; flat, because allocating no
    container per instruction cuts that cost by another third.
    """
    op_ids = _OP_IDS
    vreg = VirtualReg
    parts: list = [program.name, program.entry_name, len(program.globals)]
    append = parts.append
    extend = parts.extend
    for g in program.globals.values():
        extend((g.name, g.size_bytes, g.element_class.value, g.init))
    append(len(program.functions))
    for fn in program.functions.values():
        pmask = 0
        for p in fn.params:
            pmask = (pmask << 1) | (type(p) is vreg)
        extend((fn.name, fn.frame_size, pmask, len(fn.params)))
        for p in fn.params:
            append(p._hash)
        append(len(fn.blocks))
        for block in fn.blocks:
            instrs = block.instructions
            extend((block.label, len(instrs)))
            for i in instrs:
                dsts = i.dsts
                srcs = i.srcs
                mask = 0
                for r in dsts:
                    mask = (mask << 1) | (type(r) is vreg)
                for r in srcs:
                    mask = (mask << 1) | (type(r) is vreg)
                extend((op_ids[i.opcode], mask, len(dsts), len(srcs)))
                for r in dsts:
                    append(r._hash)
                for r in srcs:
                    append(r._hash)
                extend((i.imm, i.labels, i.symbol, i.phi_labels))
    return parts


def program_fingerprint(program: Program) -> str:
    """Stable content digest over every execution-relevant IR field.

    Unlike an in-process ``hash()`` of the same parts this survives
    process (and ``PYTHONHASHSEED``) boundaries, so batch
    composition is deterministic across worker processes.  The parts
    are serialized with ``marshal`` format 2, which writes every value
    by type and content (no object references, no interning flags, so
    equal parts give equal bytes) at a fraction of ``repr``'s cost —
    the difftest lattice fingerprints every compiled config.
    """
    return hashlib.sha256(marshal.dumps(_encode(program), 2)).hexdigest()


def batch_key(program: Program, machine: MachineConfig) -> tuple:
    """Grouping key: programs with equal keys may share one batch."""
    return (program_fingerprint(program), arch_signature(machine))


def group_batches(keys: Iterable[Optional[Hashable]]) -> List[List[int]]:
    """Partition job indices into batches of equal keys.

    Group *composition* is part of the execution plan, so it must be a
    pure function of the job list: groups appear in first-seen order
    and each lists its member indices in input order, through an
    insertion-ordered dict keyed by content digests (:func:`batch_key`),
    never through set/dict iteration over hash-randomized values.  A
    sweep fanned out across worker processes with different
    ``PYTHONHASHSEED`` values must form identical batches (the
    cross-process determinism test in ``tests/test_sim_batch_fuzz.py``
    enforces it).  ``None`` keys mark unbatchable jobs (e.g. configs
    that failed to compile) and are excluded from every group.
    """
    groups: dict = {}
    for index, key in enumerate(keys):
        if key is None:
            continue
        groups.setdefault(key, []).append(index)
    return list(groups.values())


# -- batched caches ------------------------------------------------------------


class BatchedCaches:
    """One :class:`~.cache.DataCache` per cached member, advanced together
    over the batch's one address stream.

    ``access`` returns 0: each member's latency accumulates in
    :attr:`lat` and the caller assembles ``memory_cycles`` afterwards.
    ``None`` entries in ``configs`` are cacheless members riding in the
    same batch; they accrue no cache state (their memory cycles come
    from ``machine.memory_latency``).
    """

    def __init__(self, configs: Sequence[Optional[CacheConfig]]):
        self.lat = [0] * len(configs)
        self._caches = {i: DataCache(cfg) for i, cfg in enumerate(configs)
                        if cfg is not None}

    def access(self, addr: int, is_store: bool) -> int:
        lat = self.lat
        for i, cache in self._caches.items():
            lat[i] += cache.access(addr, is_store)
        return 0

    def member_stats(self, index: int) -> Optional[CacheStats]:
        """Member ``index``'s :class:`DataCache` statistics (None for
        cacheless members)."""
        cache = self._caches.get(index)
        return cache.stats if cache is not None else None


# -- the public batch API ------------------------------------------------------


@dataclass(frozen=True)
class BatchMember:
    """One configuration riding in a batch: a machine, optionally with
    a data cache (constructed fresh per run, like the ablation grid's
    per-cell caches)."""

    machine: MachineConfig
    cache: Optional[CacheConfig] = None


def _as_member(item: Union[BatchMember, MachineConfig]) -> BatchMember:
    if isinstance(item, BatchMember):
        return item
    return BatchMember(item)


class BatchSimulation:
    """Run one program under N machine configurations in a single pass.

    All members must share :func:`arch_signature` (ValueError
    otherwise) — use :func:`batch_key` to group candidate configs.
    ``run`` returns one :class:`RunResult` per member, in member order,
    each bit-identical to a scalar run of that member.  Members may
    disagree on ``ccm_bytes``: the shared pass runs under the largest
    limit and validates against the CCM high-water mark; if the limits
    actually diverge (watermark reached, or any trap with mixed limits
    on board) ``run`` raises :class:`BatchSplit` and the caller
    re-dispatches each of its ``groups`` as a strict single-limit
    batch.  A ``clock`` with a ``stage(name)`` context manager (e.g.
    :class:`repro.exec.StageClock`) attributes the shared pass's wall
    time to ``execute.batch``.
    """

    def __init__(self, program: Program,
                 members: Sequence[Union[BatchMember, MachineConfig]],
                 fuel: int = 50_000_000, poison_caller_saved: bool = False,
                 clock=None):
        if not members:
            raise ValueError("a batch needs at least one member")
        self.members = [_as_member(m) for m in members]
        self.clock = clock
        sig = arch_signature(self.members[0].machine)
        for member in self.members[1:]:
            other = arch_signature(member.machine)
            if other != sig:
                raise ValueError(
                    f"batch members disagree architecturally: "
                    f"{other} != {sig}")
        self._mixed_ccm = len({m.machine.ccm_bytes
                               for m in self.members}) > 1
        # canonical: the largest-limit member, so the shared pass can
        # only under- never over-trap; for a single-limit batch any
        # member is the same machine architecturally
        canonical = max((m.machine for m in self.members),
                        key=lambda machine: machine.ccm_bytes)
        # the architectural state holder: one Simulator on the
        # canonical machine (globals layout, memory, CCM, physical file)
        # shared by the whole batched pass
        self._sim = Simulator(program, canonical, fuel=fuel,
                              poison_caller_saved=poison_caller_saved)

    def globals_snapshot(self) -> Dict[str, tuple]:
        """Final global-array contents — identical for every member, so
        one shared snapshot serves the whole batch (valid after a trap
        too: the trap state is architecturally shared)."""
        return self._sim.globals_snapshot()

    def _split_groups(self) -> List[List[int]]:
        """Member positions partitioned by ``ccm_bytes``, insertion-
        ordered — the re-dispatch plan a :class:`BatchSplit` carries."""
        by_limit: Dict[int, List[int]] = {}
        groups: List[List[int]] = []
        for i, member in enumerate(self.members):
            group = by_limit.get(member.machine.ccm_bytes)
            if group is None:
                by_limit[member.machine.ccm_bytes] = group = []
                groups.append(group)
            group.append(i)
        return groups

    def _split(self, recorder) -> BatchSplit:
        if recorder is not None:
            recorder.counter("sim.batch.splits")
        return BatchSplit(self._split_groups())

    def run(self, entry: Optional[str] = None,
            args: Sequence = ()) -> List[RunResult]:
        """The one architectural pass, fanned out into one
        :class:`RunResult` per member.

        Any :class:`SimulationError` applies identically to every
        member — architectural determinism is exactly what admitted
        them to the batch.  On a trap the shared simulator's memory and
        globals hold the (shared) post-trap state."""
        recorder = _trace_current()
        if recorder is not None:
            recorder.counter("sim.batch.groups")
            recorder.counter("sim.batch.members", len(self.members))
        members = self.members
        caches = None
        if any(m.cache is not None for m in members):
            caches = BatchedCaches([m.cache for m in members])
        try:
            with _staged(self.clock, "execute.batch"):
                value, n, eng = drive(self._sim, entry, args, caches)
        except SimulationError:
            if self._mixed_ccm:
                # smaller-limit members may have trapped earlier, and
                # even a shared CCM trap renders each member's own
                # limit in its message
                raise self._split(recorder) from None
            raise
        if self._mixed_ccm:
            # the pass ran under the largest limit; it serves a member
            # iff its limit was never reached
            limit_max = self._sim.machine.ccm_bytes
            for m in members:
                limit = m.machine.ccm_bytes
                if limit != limit_max and eng.max_ccm >= limit:
                    raise self._split(recorder)
        plain_ops = eng.loads + eng.stores
        ccm_ops = eng.ccm_loads + eng.ccm_stores
        results = []
        for i, m in enumerate(members):
            machine = m.machine
            cstats = caches.member_stats(i) if caches is not None else None
            main_cycles = (caches.lat[i] if cstats is not None
                           else plain_ops * machine.memory_latency)
            stats = run_stats(eng, n, machine,
                              main_cycles + ccm_ops * machine.ccm_latency)
            stats.cache = cstats
            if recorder is not None:
                count_run(recorder, stats)
            results.append(RunResult(value, stats))
        return results

def _staged(clock, name: str):
    """``clock.stage(name)`` when a clock is attached (duck-typed to
    avoid a machine→exec import), else a no-op context."""
    return clock.stage(name) if clock is not None else nullcontext()
