"""The simulator's execution driver: compile once, execute many.

A plain interpreter re-decodes every instruction on every dynamic
execution: an ``if/elif`` chain over :class:`Opcode`, an
``isinstance(VirtualReg)`` test plus a dict lookup per operand access,
and a ``fn.block(label)`` lookup per iteration.  This driver hoists all
of that into a one-time *decode* pass per function — the same "static
pre-analysis makes the dynamic path cheap" move the paper applies to
spill traffic:

* each :class:`~repro.ir.Instruction` becomes a specialized closure
  with its opcode dispatched once, operands resolved to integer slots
  in flat ``list`` register files, and immediates, latencies, and the
  memory-accounting bucket baked in as default arguments (bound at
  closure creation, read back as fast locals);
* branch targets resolve to direct :class:`_DBlock` references, so the
  hot loop never touches a label;
* each run decodes a function the first time it is entered and keeps
  the decoded form for that run only (``_Engine.decoded``).  Nothing
  outlives the run: passes like CCM promotion and compaction mutate
  instructions *in place* between simulations, so a later run decodes
  afresh, and a simulated :class:`~repro.ir.Function` is free to be
  collected once its program is dropped.  A
  :class:`~repro.machine.batch.BatchSimulation` runs the driver once
  for a whole group of machines, so the group shares one decode.

:func:`drive` is the one driver: :meth:`Simulator.run
<repro.machine.simulator.Simulator.run>` calls it once per run, and
:class:`~repro.machine.batch.BatchSimulation` once per group of
timing-only machine variants; both build their :class:`RunStats` with
:func:`run_stats`.

Bit-identity with the reference interpreter kept in
``tests/sim_oracle.py`` is a hard contract: same return value, same
:class:`RunStats` field for field — including cache statistics —
poison semantics, and the exact kind and message of every trap.  The simulator fuzz suites under ``tests/`` enforce it over the
differential-testing corpus.

Cycle accounting is lazy where the interpreter's is eager: plain
closures do no accounting at all, because every non-memory instruction
charges exactly ``default_latency`` to ``op_cycles`` — so at the end of
the run ``op_cycles = (instructions - memory_ops) * default_latency``
and ``cycles`` follows from the bucket identity.  Only memory closures
touch a counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import Opcode, PhysReg, RegClass, VirtualReg
from ..trace import current as _trace_current
from .simulator import (POISON, STACK_BASE, OutOfFuel, RunStats,
                        SimulationError, _FLOAT_BINOPS, _INT_BINOPS,
                        _INT_IMMOPS, fmt_addr)

__all__ = ["decode_function", "drive", "run_stats", "DecodedFunction"]


class _Undef:
    """Value of a register slot that was never written."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<undef>"


_UNDEF = _Undef()


class _Halt:
    __slots__ = ()


_HALT = _Halt()

#: RET with no operand (a 1-tuple is the loop's "return" control signal)
_RET_NONE = (None,)


class _ExtraRegs(dict):
    """Overflow file for physical registers outside the machine's range.

    The interpreter's dict-backed file accepts any :class:`PhysReg`;
    reads of never-written ones must still fail as "undefined".
    """

    __slots__ = ()

    def __missing__(self, key):
        return _UNDEF


def _bad_read(frame, reg, value):
    """Raise the interpreter's exact undefined/poisoned-read error."""
    name = frame.dfn.name
    if value is POISON:
        raise SimulationError(
            f"{name}: read of poisoned (caller-saved, "
            f"clobbered by call) register {reg}")
    raise SimulationError(f"{name}: read of undefined register {reg}")


class _DBlock:
    """A decoded basic block: closures plus a fell-off-the-end sentinel."""

    __slots__ = ("label", "steps")

    def __init__(self, label: str):
        self.label = label
        self.steps: List = []


class _DFrame:
    """An activation record with a flat virtual-register file."""

    __slots__ = ("dfn", "regs", "files", "base", "ret_steps", "ret_idx",
                 "ret_desc", "poison_slots")

    def __init__(self, dfn: "DecodedFunction", eng: "_Engine", base: int):
        self.dfn = dfn
        regs = [_UNDEF] * dfn.n_slots
        self.regs = regs
        self.files = (regs, eng.phys, eng.phys_extra)
        self.base = base
        self.ret_steps = None
        self.ret_idx = 0
        self.ret_desc = None
        self.poison_slots = ()


class DecodedFunction:
    __slots__ = ("name", "frame_size", "n_slots", "n_params",
                 "param_descs", "entry", "blocks")

    def __init__(self, name, frame_size, n_slots, param_descs, entry,
                 blocks):
        self.name = name
        self.frame_size = frame_size
        self.n_slots = n_slots
        self.n_params = len(param_descs)
        self.param_descs = param_descs
        self.entry = entry
        self.blocks = blocks


# -- operand numbering ---------------------------------------------------------

def _phys_slot(reg: PhysReg) -> int:
    """Canonical flat-file slot: classes interleaved, so the layout is
    machine-independent and any index maps to a unique slot."""
    return reg.index * 2 + (1 if reg.rclass is RegClass.FLOAT else 0)


# -- instruction compilation ----------------------------------------------------

def _op_not(v):
    return ~v


def _op_neg(v):
    return -v


#: MachineConfig -> caller-saved (register, slot) pairs.  Building the
#: PhysReg lists is visible at decode scale, and there are only a few
#: machine configurations per process.
_CALLER_SAVED_SLOTS: Dict[object, Tuple] = {}


def _caller_saved_slots(machine) -> Tuple:
    slots = _CALLER_SAVED_SLOTS.get(machine)
    if slots is None:
        slots = _CALLER_SAVED_SLOTS[machine] = tuple(
            (reg, _phys_slot(reg))
            for rclass in (RegClass.INT, RegClass.FLOAT)
            for reg in machine.caller_saved(rclass))
    return slots


class _Decoder:
    def __init__(self, machine, has_cache: bool):
        self.machine = machine
        self.has_cache = has_cache
        self.n_vslots = 0
        #: operand -> (file_index, slot); memoized because the decode
        #: pass resolves every operand of every instruction, and the
        #: same few registers recur throughout a function
        self.descs: Dict[object, Tuple[int, int]] = {}
        self.n_int = machine.n_int_regs
        self.n_float = machine.n_float_regs
        self.caller_saved_slots = _caller_saved_slots(machine)

    def desc(self, reg) -> Tuple[int, int]:
        """Resolve one operand to ``(file_index, slot)``: 0 = the frame's
        virtual file, 1 = the flat physical file, 2 = the overflow dict."""
        d = self.descs.get(reg)
        if d is None:
            if isinstance(reg, VirtualReg):
                d = (0, self.n_vslots)
                self.n_vslots += 1
            elif reg.index < (self.n_int if reg.rclass is RegClass.INT
                              else self.n_float):
                d = (1, _phys_slot(reg))
            else:
                d = (2, _phys_slot(reg))
            self.descs[reg] = d
        return d

    # each maker returns a core closure with the (eng, frame) calling
    # convention; a None return means fall through to the next step

    def compile(self, instr, blocks: Dict[str, _DBlock]):
        maker = _MAKERS.get(instr.opcode)
        if maker is not None:
            return maker(self, instr, blocks)

        def core(eng, frame, op=instr.opcode):
            raise SimulationError(f"unimplemented opcode {op}")
        return core

    # -- per-opcode makers (dispatched through _MAKERS) ----------------------

    def _m_loadi(self, instr, blocks):
        fd, xd = self.desc(instr.dsts[0])

        def core(eng, frame, fd=fd, xd=xd, imm=instr.imm):
            frame.files[fd][xd] = imm
        return core

    def _m_loadg(self, instr, blocks):
        fd, xd = self.desc(instr.dsts[0])

        def core(eng, frame, fd=fd, xd=xd, sym=instr.symbol):
            frame.files[fd][xd] = eng.global_base[sym]
        return core

    def _m_mov(self, instr, blocks):
        return self._unary(instr, None)

    def _m_not(self, instr, blocks):
        return self._unary(instr, _op_not)

    def _m_fneg(self, instr, blocks):
        return self._unary(instr, _op_neg)

    def _m_i2f(self, instr, blocks):
        return self._unary(instr, float)

    def _m_f2i(self, instr, blocks):
        f0, x0 = self.desc(instr.srcs[0])
        fd, xd = self.desc(instr.dsts[0])

        def core(eng, frame, f0=f0, x0=x0, fd=fd, xd=xd,
                 r=instr.srcs[0]):
            files = frame.files
            v = files[f0][x0]
            if v is _UNDEF or v is POISON:
                _bad_read(frame, r, v)
            if v != v or v in (float("inf"), float("-inf")):
                raise SimulationError(
                    f"f2i of non-finite value {v!r}", kind="trap")
            files[fd][xd] = int(v)
        return core

    def _m_int_binop(self, instr, blocks):
        return self._binop(instr, _INT_BINOPS[instr.opcode], trap_wrap=True)

    def _m_float_binop(self, instr, blocks):
        return self._binop(instr, _FLOAT_BINOPS[instr.opcode],
                           trap_wrap=False)

    def _m_immop(self, instr, blocks):
        f0, x0 = self.desc(instr.srcs[0])
        fd, xd = self.desc(instr.dsts[0])
        op = instr.opcode

        def core(eng, frame, f0=f0, x0=x0, fd=fd, xd=xd,
                 fn_op=_INT_IMMOPS[op], imm=instr.imm,
                 r=instr.srcs[0], opname=op.value):
            files = frame.files
            a = files[f0][x0]
            if a is _UNDEF or a is POISON:
                _bad_read(frame, r, a)
            try:
                files[fd][xd] = fn_op(a, imm)
            except (ValueError, OverflowError) as exc:
                raise SimulationError(f"{opname}: {exc}", kind="trap")
        return core

    def _m_load(self, instr, blocks):
        return self._load(instr, offset=0, addr_src=instr.srcs[0],
                          spill=False)

    def _m_loadai(self, instr, blocks):
        return self._load(instr, offset=instr.imm,
                          addr_src=instr.srcs[0], spill=False)

    def _m_reload(self, instr, blocks):
        return self._load(instr, offset=instr.imm, addr_src=None,
                          spill=True)

    def _m_store(self, instr, blocks):
        return self._store(instr, offset=0, addr_src=instr.srcs[1],
                           spill=False)

    def _m_storeai(self, instr, blocks):
        return self._store(instr, offset=instr.imm,
                           addr_src=instr.srcs[1], spill=False)

    def _m_spill(self, instr, blocks):
        return self._store(instr, offset=instr.imm, addr_src=None,
                           spill=True)

    def _m_ccm_store(self, instr, blocks):
        return self._ccm_store(instr, 4 if instr.opcode is Opcode.CCMST
                               else 8)

    def _m_ccm_load(self, instr, blocks):
        return self._ccm_load(instr, 4 if instr.opcode is Opcode.CCMLD
                              else 8)

    def _m_jump(self, instr, blocks):
        def core(eng, frame, blk=blocks[instr.labels[0]]):
            return blk
        return core

    def _m_cbr(self, instr, blocks):
        f0, x0 = self.desc(instr.srcs[0])

        def core(eng, frame, f0=f0, x0=x0, r=instr.srcs[0],
                 bt=blocks[instr.labels[0]], bf=blocks[instr.labels[1]]):
            v = frame.files[f0][x0]
            if v is _UNDEF or v is POISON:
                _bad_read(frame, r, v)
            return bt if v != 0 else bf
        return core

    def _m_call(self, instr, blocks):
        return self._call(instr)

    def _m_ret(self, instr, blocks):
        if not instr.srcs:
            def core(eng, frame):
                return _RET_NONE
            return core
        f0, x0 = self.desc(instr.srcs[0])

        def core(eng, frame, f0=f0, x0=x0, r=instr.srcs[0]):
            v = frame.files[f0][x0]
            if v is _UNDEF or v is POISON:
                _bad_read(frame, r, v)
            return (v,)
        return core

    def _m_halt(self, instr, blocks):
        def core(eng, frame):
            return _HALT
        return core

    def _m_nop(self, instr, blocks):
        def core(eng, frame):
            return None
        return core

    def _m_phi(self, instr, blocks):
        def core(eng, frame):
            raise SimulationError(
                f"{frame.dfn.name}: phi reached the simulator; "
                "destroy SSA before running")
        return core

    # -- op-family makers ---------------------------------------------------

    def _unary(self, instr, fn_op):
        f0, x0 = self.desc(instr.srcs[0])
        fd, xd = self.desc(instr.dsts[0])
        if fn_op is None:           # mov / fmov
            def core(eng, frame, f0=f0, x0=x0, fd=fd, xd=xd,
                     r=instr.srcs[0]):
                files = frame.files
                v = files[f0][x0]
                if v is _UNDEF or v is POISON:
                    _bad_read(frame, r, v)
                files[fd][xd] = v
            return core

        def core(eng, frame, f0=f0, x0=x0, fd=fd, xd=xd, fn_op=fn_op,
                 r=instr.srcs[0]):
            files = frame.files
            v = files[f0][x0]
            if v is _UNDEF or v is POISON:
                _bad_read(frame, r, v)
            files[fd][xd] = fn_op(v)
        return core

    def _binop(self, instr, fn_op, trap_wrap: bool):
        f0, x0 = self.desc(instr.srcs[0])
        f1, x1 = self.desc(instr.srcs[1])
        fd, xd = self.desc(instr.dsts[0])
        r0, r1 = instr.srcs[0], instr.srcs[1]
        if trap_wrap:
            def core(eng, frame, f0=f0, x0=x0, f1=f1, x1=x1, fd=fd, xd=xd,
                     fn_op=fn_op, r0=r0, r1=r1, opname=instr.opcode.value):
                files = frame.files
                a = files[f0][x0]
                if a is _UNDEF or a is POISON:
                    _bad_read(frame, r0, a)
                b = files[f1][x1]
                if b is _UNDEF or b is POISON:
                    _bad_read(frame, r1, b)
                try:
                    files[fd][xd] = fn_op(a, b)
                except (ValueError, OverflowError) as exc:
                    raise SimulationError(f"{opname}: {exc}", kind="trap")
            return core

        def core(eng, frame, f0=f0, x0=x0, f1=f1, x1=x1, fd=fd, xd=xd,
                 fn_op=fn_op, r0=r0, r1=r1):
            files = frame.files
            a = files[f0][x0]
            if a is _UNDEF or a is POISON:
                _bad_read(frame, r0, a)
            b = files[f1][x1]
            if b is _UNDEF or b is POISON:
                _bad_read(frame, r1, b)
            files[fd][xd] = fn_op(a, b)
        return core

    def _load(self, instr, offset, addr_src, spill: bool):
        fd, xd = self.desc(instr.dsts[0])
        lat = self.machine.memory_latency
        if addr_src is not None:
            fa, xa = self.desc(addr_src)
            if self.has_cache:
                def core(eng, frame, fa=fa, xa=xa, fd=fd, xd=xd,
                         off=offset, r=addr_src):
                    files = frame.files
                    v = files[fa][xa]
                    if v is _UNDEF or v is POISON:
                        _bad_read(frame, r, v)
                    addr = v + off
                    eng.memory_cycles += eng.cache.access(addr, False)
                    mem = eng.memory
                    if addr not in mem:
                        raise SimulationError(
                            f"{frame.dfn.name}: load from unmapped "
                            f"address {fmt_addr(addr)}")
                    files[fd][xd] = mem[addr]
                    eng.loads += 1
                return core

            def core(eng, frame, fa=fa, xa=xa, fd=fd, xd=xd,
                     off=offset, r=addr_src, lat=lat):
                files = frame.files
                v = files[fa][xa]
                if v is _UNDEF or v is POISON:
                    _bad_read(frame, r, v)
                addr = v + off
                eng.memory_cycles += lat
                mem = eng.memory
                if addr not in mem:
                    raise SimulationError(
                        f"{frame.dfn.name}: load from unmapped "
                        f"address {fmt_addr(addr)}")
                files[fd][xd] = mem[addr]
                eng.loads += 1
            return core

        # reload / freload: frame-relative, counts spill traffic
        if self.has_cache:
            def core(eng, frame, fd=fd, xd=xd, off=offset):
                addr = frame.base + off
                eng.memory_cycles += eng.cache.access(addr, False)
                mem = eng.memory
                if addr not in mem:
                    raise SimulationError(
                        f"{frame.dfn.name}: load from unmapped "
                        f"address {fmt_addr(addr)}")
                frame.files[fd][xd] = mem[addr]
                eng.spill_loads += 1
                eng.loads += 1
            return core

        def core(eng, frame, fd=fd, xd=xd, off=offset, lat=lat):
            addr = frame.base + off
            eng.memory_cycles += lat
            mem = eng.memory
            if addr not in mem:
                raise SimulationError(
                    f"{frame.dfn.name}: load from unmapped "
                    f"address {fmt_addr(addr)}")
            frame.files[fd][xd] = mem[addr]
            eng.spill_loads += 1
            eng.loads += 1
        return core

    def _store(self, instr, offset, addr_src, spill: bool):
        fv, xv = self.desc(instr.srcs[0])
        rv = instr.srcs[0]
        lat = self.machine.memory_latency
        if addr_src is not None:
            fa, xa = self.desc(addr_src)
            if self.has_cache:
                def core(eng, frame, fa=fa, xa=xa, fv=fv, xv=xv,
                         off=offset, ra=addr_src, rv=rv):
                    files = frame.files
                    a = files[fa][xa]
                    if a is _UNDEF or a is POISON:
                        _bad_read(frame, ra, a)
                    addr = a + off
                    eng.memory_cycles += eng.cache.access(addr, True)
                    v = files[fv][xv]
                    if v is _UNDEF or v is POISON:
                        _bad_read(frame, rv, v)
                    eng.memory[addr] = v
                    eng.stores += 1
                return core

            def core(eng, frame, fa=fa, xa=xa, fv=fv, xv=xv,
                     off=offset, ra=addr_src, rv=rv, lat=lat):
                files = frame.files
                a = files[fa][xa]
                if a is _UNDEF or a is POISON:
                    _bad_read(frame, ra, a)
                addr = a + off
                eng.memory_cycles += lat
                v = files[fv][xv]
                if v is _UNDEF or v is POISON:
                    _bad_read(frame, rv, v)
                eng.memory[addr] = v
                eng.stores += 1
            return core

        # spill / fspill: frame-relative, counts spill traffic
        if self.has_cache:
            def core(eng, frame, fv=fv, xv=xv, off=offset, rv=rv):
                addr = frame.base + off
                eng.memory_cycles += eng.cache.access(addr, True)
                v = frame.files[fv][xv]
                if v is _UNDEF or v is POISON:
                    _bad_read(frame, rv, v)
                eng.memory[addr] = v
                eng.spill_stores += 1
                eng.stores += 1
            return core

        def core(eng, frame, fv=fv, xv=xv, off=offset, rv=rv, lat=lat):
            addr = frame.base + off
            eng.memory_cycles += lat
            v = frame.files[fv][xv]
            if v is _UNDEF or v is POISON:
                _bad_read(frame, rv, v)
            eng.memory[addr] = v
            eng.spill_stores += 1
            eng.stores += 1
        return core

    def _ccm_store(self, instr, size: int):
        fv, xv = self.desc(instr.srcs[0])

        def core(eng, frame, fv=fv, xv=xv, imm=instr.imm, size=size,
                 rv=instr.srcs[0], lat=self.machine.ccm_latency,
                 limit=self.machine.ccm_bytes):
            offset = eng.ccm_base + imm
            if offset < 0 or offset + size > limit:
                raise SimulationError(
                    f"{frame.dfn.name}: CCM access at {offset}+{size} "
                    f"exceeds {limit}-byte CCM")
            eng.memory_cycles += lat
            v = frame.files[fv][xv]
            if v is _UNDEF or v is POISON:
                _bad_read(frame, rv, v)
            eng.ccm[offset] = v
            eng.ccm_stores += 1
            end = offset + size - 1
            if end > eng.max_ccm:
                eng.max_ccm = end
        return core

    def _ccm_load(self, instr, size: int):
        fd, xd = self.desc(instr.dsts[0])

        def core(eng, frame, fd=fd, xd=xd, imm=instr.imm, size=size,
                 lat=self.machine.ccm_latency,
                 limit=self.machine.ccm_bytes):
            offset = eng.ccm_base + imm
            if offset < 0 or offset + size > limit:
                raise SimulationError(
                    f"{frame.dfn.name}: CCM access at {offset}+{size} "
                    f"exceeds {limit}-byte CCM")
            ccm = eng.ccm
            if offset not in ccm:
                raise SimulationError(
                    f"{frame.dfn.name}: CCM load from unwritten "
                    f"offset {offset}")
            eng.memory_cycles += lat
            frame.files[fd][xd] = ccm[offset]
            eng.ccm_loads += 1
            end = offset + size - 1
            if end > eng.max_ccm:
                eng.max_ccm = end
        return core

    def _call(self, instr):
        arg_descs = tuple((*self.desc(s), s) for s in instr.srcs)
        ret_desc = self.desc(instr.dsts[0]) if instr.dsts else None
        # caller-saved registers to poison on return (baked: the keep
        # set compares by register equality, exactly like the interpreter)
        keep = set(instr.dsts)
        poison_slots = tuple(
            slot for reg, slot in self.caller_saved_slots
            if reg not in keep)

        def core(eng, frame, sym=instr.symbol, arg_descs=arg_descs,
                 ret_desc=ret_desc, poison_slots=poison_slots):
            dfn = eng.decoded.get(sym)
            if dfn is None:
                dfn = eng.resolve(sym)
            files = frame.files
            values = []
            for f, x, r in arg_descs:
                v = files[f][x]
                if v is _UNDEF or v is POISON:
                    _bad_read(frame, r, v)
                values.append(v)
            base = STACK_BASE - eng.depth - dfn.frame_size
            eng.depth += dfn.frame_size
            new = _DFrame(dfn, eng, base)
            if len(values) != dfn.n_params:
                raise SimulationError(
                    f"{dfn.name}: arity mismatch at call "
                    f"from {frame.dfn.name}")
            nfiles = new.files
            for (f, x), v in zip(dfn.param_descs, values):
                nfiles[f][x] = v
            frame.ret_desc = ret_desc
            frame.poison_slots = poison_slots
            eng.calls += 1
            return new
        return core


#: Opcode -> maker method.  One dict probe replaces the if/elif chain
#: (and its repeated enum hashing) on the decode hot path.
_MAKERS: Dict[Opcode, object] = {}
_MAKERS.update({op: _Decoder._m_int_binop for op in _INT_BINOPS})
_MAKERS.update({op: _Decoder._m_float_binop for op in _FLOAT_BINOPS})
_MAKERS.update({op: _Decoder._m_immop for op in _INT_IMMOPS})
_MAKERS.update({
    Opcode.LOADI: _Decoder._m_loadi,
    Opcode.LOADFI: _Decoder._m_loadi,
    Opcode.LOADG: _Decoder._m_loadg,
    Opcode.MOV: _Decoder._m_mov,
    Opcode.FMOV: _Decoder._m_mov,
    Opcode.NOT: _Decoder._m_not,
    Opcode.FNEG: _Decoder._m_fneg,
    Opcode.I2F: _Decoder._m_i2f,
    Opcode.F2I: _Decoder._m_f2i,
    Opcode.LOAD: _Decoder._m_load,
    Opcode.FLOAD: _Decoder._m_load,
    Opcode.LOADAI: _Decoder._m_loadai,
    Opcode.FLOADAI: _Decoder._m_loadai,
    Opcode.RELOAD: _Decoder._m_reload,
    Opcode.FRELOAD: _Decoder._m_reload,
    Opcode.STORE: _Decoder._m_store,
    Opcode.FSTORE: _Decoder._m_store,
    Opcode.STOREAI: _Decoder._m_storeai,
    Opcode.FSTOREAI: _Decoder._m_storeai,
    Opcode.SPILL: _Decoder._m_spill,
    Opcode.FSPILL: _Decoder._m_spill,
    Opcode.CCMST: _Decoder._m_ccm_store,
    Opcode.FCCMST: _Decoder._m_ccm_store,
    Opcode.CCMLD: _Decoder._m_ccm_load,
    Opcode.FCCMLD: _Decoder._m_ccm_load,
    Opcode.JUMP: _Decoder._m_jump,
    Opcode.CBR: _Decoder._m_cbr,
    Opcode.CALL: _Decoder._m_call,
    Opcode.RET: _Decoder._m_ret,
    Opcode.HALT: _Decoder._m_halt,
    Opcode.NOP: _Decoder._m_nop,
    Opcode.PHI: _Decoder._m_phi,
})


def _make_felloff(fn_name: str, label: str):
    def core(eng, frame, msg=f"{fn_name}/{label}: fell off block end"):
        raise SimulationError(msg)
    return core


# -- decoding --------------------------------------------------------------------

def decode_function(fn, machine, has_cache: bool) -> DecodedFunction:
    """Decode ``fn`` for ``machine``: a fresh :class:`DecodedFunction`
    on every call (a run memoizes it in ``_Engine.decoded``)."""
    recorder = _trace_current()
    if recorder is None:
        return _decode(fn, machine, has_cache)
    with recorder.span("sim.decode", fn=fn.name):
        dfn = _decode(fn, machine, has_cache)
    recorder.counter("sim.decode.functions")
    recorder.counter("sim.decode.instructions", fn.instruction_count())
    return dfn


def _decode(fn, machine, has_cache: bool) -> DecodedFunction:
    dec = _Decoder(machine, has_cache)
    # number the parameters first so the slot layout is stable
    param_descs = tuple(dec.desc(p) for p in fn.params)
    blocks = {b.label: _DBlock(b.label) for b in fn.blocks}
    for b in fn.blocks:
        steps = blocks[b.label].steps
        for instr in b.instructions:
            steps.append(dec.compile(instr, blocks))
        steps.append(_make_felloff(fn.name, b.label))
    return DecodedFunction(fn.name, fn.frame_size, dec.n_vslots,
                           param_descs, blocks[fn.entry.label], blocks)


# -- the engine -------------------------------------------------------------------

class _Engine:
    """Per-run mutable state shared by every closure (via ``eng``)."""

    __slots__ = ("program", "machine", "memory", "ccm", "ccm_base", "cache",
                 "has_cache", "global_base", "phys", "phys_extra", "decoded",
                 "depth", "memory_cycles", "loads", "stores", "spill_loads",
                 "spill_stores", "ccm_loads", "ccm_stores", "calls",
                 "max_ccm")

    def resolve(self, sym: str) -> DecodedFunction:
        fn = self.program.functions.get(sym)
        if fn is None:
            raise SimulationError(f"call to unknown function {sym}")
        dfn = decode_function(fn, self.machine, self.has_cache)
        self.decoded[sym] = dfn
        return dfn


def _prepare_engine(sim, cache) -> "_Engine":
    """An :class:`_Engine` sharing ``sim``'s persistent machine state,
    with the simulator's dict-backed physical file materialized as a
    flat list (+ overflow).  ``cache`` is anything with the
    :meth:`DataCache.access <repro.machine.cache.DataCache.access>`
    signature: the simulator's own cache, or the batch's
    :class:`~repro.machine.batch.BatchedCaches`."""
    machine = sim.machine
    eng = _Engine()
    eng.program = sim.program
    eng.machine = machine
    eng.memory = sim.memory
    eng.ccm = sim.ccm
    eng.ccm_base = sim.ccm_base
    eng.cache = cache
    eng.has_cache = cache is not None
    eng.global_base = sim.global_base
    eng.decoded = {}
    eng.depth = 0
    eng.memory_cycles = 0
    eng.loads = eng.stores = 0
    eng.spill_loads = eng.spill_stores = 0
    eng.ccm_loads = eng.ccm_stores = 0
    eng.calls = 0
    eng.max_ccm = -1

    n_flat = 2 * max(machine.n_int_regs, machine.n_float_regs)
    phys: List = [_UNDEF] * n_flat
    extra = _ExtraRegs()
    for reg, value in sim.phys.items():
        slot = _phys_slot(reg)
        if reg.index < machine.n_regs(reg.rclass):
            phys[slot] = value
        else:
            extra[slot] = value
    eng.phys = phys
    eng.phys_extra = extra
    return eng


def _writeback_phys(sim, eng: "_Engine") -> None:
    """Write the flat physical file back into the simulator's dict."""
    for slot, v in enumerate(eng.phys):
        if v is not _UNDEF:
            sim.phys[PhysReg(slot >> 1, RegClass.FLOAT if slot & 1
                             else RegClass.INT)] = v
    for slot, v in eng.phys_extra.items():
        sim.phys[PhysReg(slot >> 1, RegClass.FLOAT if slot & 1
                         else RegClass.INT)] = v


def drive(sim, entry: Optional[str], args, cache):
    """Execute ``sim.program`` from ``entry`` on ``sim.machine``.

    Mutates the simulator's persistent state (``memory``, ``ccm``,
    ``phys``) exactly like the reference interpreter, so repeated runs
    observe the same machine; memory accesses go through ``cache`` (see
    :func:`_prepare_engine`).  Returns ``(value, instructions, eng)``;
    ``eng`` carries the dynamic operation counts for :func:`run_stats`.
    """
    program = sim.program
    entry = entry or program.entry_name
    fn = program.functions[entry]
    if len(args) != len(fn.params):
        raise SimulationError(
            f"{entry} expects {len(fn.params)} args, got {len(args)}")
    machine = sim.machine
    eng = _prepare_engine(sim, cache)
    dfn = decode_function(fn, machine, eng.has_cache)
    eng.decoded[entry] = dfn

    try:
        value, n = _loop(eng, dfn, args, sim.fuel, sim.poison_caller_saved)
    finally:
        _writeback_phys(sim, eng)
    return value, n, eng


def run_stats(eng: "_Engine", n: int, machine,
              memory_cycles: int) -> RunStats:
    """The :class:`RunStats` of one driven run under ``machine``.

    Every non-memory instruction charges exactly ``default_latency`` to
    the op bucket, so the bucket is derived after the fact; the caller
    supplies the memory cycles (the driver's own tally, or one batch
    member's fan-out)."""
    mem_ops = eng.loads + eng.stores + eng.ccm_loads + eng.ccm_stores
    op_cycles = (n - mem_ops) * machine.default_latency
    return RunStats(
        cycles=op_cycles + memory_cycles,
        memory_cycles=memory_cycles, op_cycles=op_cycles,
        instructions=n, loads=eng.loads, stores=eng.stores,
        spill_stores=eng.spill_stores, spill_loads=eng.spill_loads,
        ccm_stores=eng.ccm_stores, ccm_loads=eng.ccm_loads,
        calls=eng.calls, max_ccm_offset=eng.max_ccm)


def _loop(eng, dfn, args, fuel, poison):
    """The main loop: bare closures, no accounting."""
    eng.depth = dfn.frame_size
    frame = _DFrame(dfn, eng, STACK_BASE - dfn.frame_size)
    files = frame.files
    for (f, x), value in zip(dfn.param_descs, args):
        files[f][x] = value
    stack = [frame]
    steps = dfn.entry.steps
    idx = 0
    n = 0
    while True:
        if n >= fuel:
            raise OutOfFuel(
                f"exceeded {fuel} instructions in {frame.dfn.name}")
        n += 1
        ctl = steps[idx](eng, frame)
        if ctl is None:
            idx += 1
            continue
        cls = ctl.__class__
        if cls is _DBlock:
            steps = ctl.steps
            idx = 0
            continue
        if cls is tuple:                        # return
            eng.depth -= frame.dfn.frame_size
            stack.pop()
            if not stack:
                return ctl[0], n
            prev_name = frame.dfn.name
            frame = stack[-1]
            if poison:
                phys = eng.phys
                for slot in frame.poison_slots:
                    phys[slot] = POISON
            rd = frame.ret_desc
            if rd is not None:
                value = ctl[0]
                if value is None:
                    raise SimulationError(
                        f"{prev_name}: void return but caller "
                        "expects a value")
                frame.files[rd[0]][rd[1]] = value
            steps = frame.ret_steps
            idx = frame.ret_idx
            continue
        if cls is _DFrame:                      # call
            frame.ret_steps = steps
            frame.ret_idx = idx + 1
            stack.append(ctl)
            frame = ctl
            steps = ctl.dfn.entry.steps
            idx = 0
            continue
        return None, n                          # _HALT
