"""Batched structure-of-arrays execution backend.

The covenant verifiers and the differential fuzzer are *many-execution*
workloads: isochronicity, dudect and the secret-family oracles run the same
function over large families of argument vectors that differ only in
secrets.  The scalar backends pay the full dispatch, accounting and trace
bookkeeping cost once per vector.  This backend evaluates N vectors — the
*lanes* — in one lock-step pass over the compiled program:

* **Structure of arrays.**  Each virtual register holds one value *per
  lane* instead of one value.  Lane vectors carry a representation tag by
  Python class: a plain ``int``/``Pointer`` is a *uniform* value shared by
  every lane (public computation stays scalar and is paid once), a NumPy
  ``int64`` array is the vectorized fast path for secret-dependent words,
  and a plain ``list`` is the general per-lane form (mixed values, or NumPy
  absent).  ``int64`` arithmetic wraps mod 2**64 exactly like
  :func:`repro.ir.ops.wrap`; the C-truncating ``/`` and ``%`` are routed
  through the scalar :func:`~repro.ir.ops.eval_binop` per lane, and shifts
  go through ``uint64`` so ``>>`` stays logical.  Nothing NumPy-typed ever
  escapes the engine: results, memory cells and traces are plain ints.

* **Lock-step accounting.**  All live lanes are always at the same basic
  block, so step and cycle totals accumulate once (``base``) with per-lane
  deltas only where a ``call`` executed its callee scalar per lane — every
  lane still reads its exact per-vector cost, which is what the covenant
  clauses and trace-isochronicity checks compare.

* **Divergence.**  The engine drives block by block, following the first
  live lane at every branch; a lane whose branch condition disagrees
  leaves lock-step and re-runs scalar on the compiled backend from its
  original arguments (counted as ``exec.batch.diverge``), and the
  surviving lanes are compacted.

* **Abort protocol.**  Correctness never depends on the lock-step engine
  handling an exotic case: any error inside a chunk (strict memory
  violation, step limit, undefined variable, per-lane allocation sizes…)
  abandons the chunk and replays every lane sequentially on the scalar
  compiled backend, so per-lane results — and the order in which per-lane
  exceptions surface — are bit-identical to a scalar loop by construction.

Identical argument vectors are deduplicated before dispatch (the executor
is deterministic, so equal inputs imply equal results); dudect's fixed
input class collapses to one execution per chunk this way.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Optional, Sequence

from repro.exec.compiled import (
    _UNDEF,
    CompiledExecutor,
    exec_cache_limit,
)
from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.interpreter import (
    DEFAULT_MAX_CALL_DEPTH,
    DEFAULT_MAX_STEPS,
    ExecutionResult,
    InterpreterError,
    _RunState,
)
from repro.exec.memory import Memory, Pointer
from repro.exec.traces import InstructionSite, MemoryAccess, Trace
from repro.ir.instructions import (
    Alloc,
    Br,
    Call,
    CtSel,
    Jmp,
    Load,
    Mov,
    Phi,
    Ret,
    Store,
    UnaryExpr,
)
from repro.ir.module import Module
from repro.ir.ops import WORD_BITS, WORD_BYTES, eval_binop, eval_unop, wrap
from repro.ir.values import Const, Var
from repro.knobs import knob
from repro.obs import OBS

try:  # NumPy is optional: the list-vectorized engine is the reference.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via use_numpy=False
    _np = None

_MASK = (1 << WORD_BITS) - 1

#: Scalar kernels for uniform and per-lane words.  ``/`` and ``%``
#: delegate to :func:`eval_binop` to share its sign- and zero-handling
#: exactly; the hot operators are direct lambdas.
_BIN = {
    "+": lambda a, b: wrap(a + b),
    "-": lambda a, b: wrap(a - b),
    "*": lambda a, b: wrap(a * b),
    "/": lambda a, b: eval_binop("/", a, b),
    "%": lambda a, b: eval_binop("%", a, b),
    "&": lambda a, b: wrap(a & b),
    "|": lambda a, b: wrap(a | b),
    "^": lambda a, b: wrap(a ^ b),
    "<<": lambda a, b: wrap(a << (b % WORD_BITS)),
    ">>": lambda a, b: wrap((a & _MASK) >> (b % WORD_BITS)),
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}

_UN = {
    "-": lambda v: wrap(-v),
    "~": lambda v: wrap(~v),
}


class _Fallback(Exception):
    """Internal: this chunk cannot run lock-step; replay the lanes scalar."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# -- lane-vector helpers -----------------------------------------------------
#
# A lane vector is one of: a uniform value (int / Pointer / _UNDEF), a NumPy
# int64 ndarray (one word per lane), or a plain list (one value per lane).
# Vectors are never mutated in place — every operation builds a fresh one —
# so phi copies and register aliasing are always safe.

def _lanes_of(vec, n: int, nd):
    """Materialise a lane vector as a plain per-lane list."""
    c = vec.__class__
    if c is list:
        return vec
    if nd is not None and c is nd:
        return vec.tolist()
    return [vec] * n


def _pack(vals: list, np_mod):
    """Pack per-lane values into the cheapest vector representation.

    Equal lanes collapse to a uniform scalar — the big win, since every
    computation over public data stays lane-uniform and is done once with
    exact scalar semantics.
    """
    v0 = vals[0]
    if vals.count(v0) == len(vals):
        return v0
    if np_mod is not None and v0.__class__ is int:
        try:
            return np_mod.array(vals, dtype=np_mod.int64)
        except (TypeError, OverflowError):
            return vals  # mixed ints and pointers
    return vals


def _np_bin(op: str, np_mod):
    """Vectorized kernel for one binary operator, or None if unsupported.

    ``/`` and ``%`` are C-truncating with divide-by-zero yielding 0 —
    NumPy's floored semantics differ, so they stay on the per-lane scalar
    path.  Shifts go through ``uint64`` (well-defined wrap-around, and a
    logical ``>>``), matching :func:`repro.ir.ops.eval_binop` bit for bit.
    """
    if np_mod is None:
        return None
    i64 = np_mod.int64
    u64 = np_mod.uint64
    simple = {
        "+": np_mod.add,
        "-": np_mod.subtract,
        "*": np_mod.multiply,
        "&": np_mod.bitwise_and,
        "|": np_mod.bitwise_or,
        "^": np_mod.bitwise_xor,
    }
    fn = simple.get(op)
    if fn is not None:
        def ev(a, b, _fn=fn):
            return _fn(a, b)
        return ev
    if op in ("<<", ">>"):
        left = op == "<<"

        def ev(a, b, _left=left):
            if a.__class__ is int:
                au = u64(a & _MASK)
            else:
                au = a.astype(u64)
            s = b % WORD_BITS
            if s.__class__ is int:
                s = u64(s)
            else:
                s = s.astype(u64)
            r = (au << s) if _left else (au >> s)
            return r.astype(i64)

        return ev
    cmps = {
        "<": np_mod.less, "<=": np_mod.less_equal,
        ">": np_mod.greater, ">=": np_mod.greater_equal,
    }
    fn = cmps.get(op)
    if fn is not None:
        def ev(a, b, _fn=fn):
            return _fn(a, b).astype(i64)
        return ev
    return None  # "/" and "%"


# -- expression compilation (vector accessors) -------------------------------

def _b_value(value, slots: dict, fname: str):
    """Compile a ``Const``/``Var`` into a vector accessor ``acc(bregs)``."""
    if not isinstance(value, Var):
        v = wrap(value.value)

        def acc(bregs, _v=v):
            return _v

        return acc
    name = value.name
    slot = slots.get(name)
    if slot is None:

        def acc(bregs, _f=fname, _n=name):
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")

        return acc

    def acc(bregs, _s=slot, _f=fname, _n=name):
        v = bregs[_s]
        if v is _UNDEF:
            raise InterpreterError(f"@{_f}: variable {_n} is undefined at use")
        return v

    return acc


def _b_bin(expr, slots: dict, fname: str, np_mod):
    op = expr.op
    lhs, rhs = expr.lhs, expr.rhs
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        if op in ("==", "!="):
            eq = wrap(lhs.value) == wrap(rhs.value)
            v = 1 if eq == (op == "==") else 0
        else:
            v = eval_binop(op, wrap(lhs.value), wrap(rhs.value))

        def ev(bregs, _v=v):
            return _v

        return ev
    la = _b_value(lhs, slots, fname)
    ra = _b_value(rhs, slots, fname)
    nd = np_mod.ndarray if np_mod is not None else None
    if op in ("==", "!="):
        want = op == "=="

        def ev(bregs, _l=la, _r=ra, _w=want, _nd=nd, _np=np_mod):
            a = _l(bregs)
            b = _r(bregs)
            ca = a.__class__
            cb = b.__class__
            if ca is not list and cb is not list and ca is not _nd \
                    and cb is not _nd:
                return 1 if (a == b) == _w else 0
            if _nd is not None and (ca is _nd or cb is _nd):
                if (ca is _nd or ca is int) and (cb is _nd or cb is int):
                    r = (a == b) if _w else (a != b)
                    return r.astype(_np.int64)
                if ca is not list and cb is not list:
                    # int64 lanes against a uniform pointer: never equal.
                    return 0 if _w else 1
            n = len(a) if (ca is list or ca is _nd) else len(b)
            al = _lanes_of(a, n, _nd)
            bl = _lanes_of(b, n, _nd)
            return _pack(
                [(1 if (x == y) == _w else 0) for x, y in zip(al, bl)], _np
            )

        return ev
    fn = _BIN[op]
    npfn = _np_bin(op, np_mod)

    def ev(bregs, _l=la, _r=ra, _fn=fn, _npfn=npfn, _nd=nd, _np=np_mod,
           _o=op):
        a = _l(bregs)
        b = _r(bregs)
        ca = a.__class__
        cb = b.__class__
        if ca is int and cb is int:
            return _fn(a, b)
        if _npfn is not None and (ca is _nd or cb is _nd) \
                and (ca is int or ca is _nd) and (cb is int or cb is _nd):
            return _npfn(a, b)
        if ca is list or ca is _nd:
            n = len(a)
        elif cb is list or cb is _nd:
            n = len(b)
        else:
            # Both uniform, at least one a pointer: scalar semantics.
            try:
                return _fn(a, b)
            except TypeError:
                raise InterpreterError(
                    f"arithmetic {_o!r} applied to a pointer"
                ) from None
        al = _lanes_of(a, n, _nd)
        bl = _lanes_of(b, n, _nd)
        try:
            return _pack([_fn(x, y) for x, y in zip(al, bl)], _np)
        except TypeError:
            raise InterpreterError(
                f"arithmetic {_o!r} applied to a pointer"
            ) from None

    return ev


def _b_unary(expr: UnaryExpr, slots: dict, fname: str, np_mod):
    op = expr.op
    operand = expr.operand
    if isinstance(operand, Const):
        v = eval_unop(op, wrap(operand.value))

        def ev(bregs, _v=v):
            return _v

        return ev
    acc = _b_value(operand, slots, fname)
    nd = np_mod.ndarray if np_mod is not None else None
    if op == "!":

        def ev(bregs, _a=acc, _nd=nd, _np=np_mod):
            v = _a(bregs)
            c = v.__class__
            if c is int:
                return 1 if v == 0 else 0
            if c is _nd:
                return (v == 0).astype(_np.int64)
            if c is list:
                out = []
                for x in v:
                    if x.__class__ is not int:
                        raise InterpreterError(
                            "unary operator applied to a pointer"
                        )
                    out.append(1 if x == 0 else 0)
                return _pack(out, _np)
            raise InterpreterError("unary operator applied to a pointer")

        return ev
    fn = _UN[op]
    npfn = None
    if np_mod is not None:
        npfn = np_mod.negative if op == "-" else np_mod.invert

    def ev(bregs, _a=acc, _fn=fn, _npfn=npfn, _nd=nd, _np=np_mod):
        v = _a(bregs)
        c = v.__class__
        if c is int:
            return _fn(v)
        if c is _nd:
            return _npfn(v)
        if c is list:
            try:
                return _pack([_fn(x) for x in v], _np)
            except TypeError:
                raise InterpreterError(
                    "unary operator applied to a pointer"
                ) from None
        raise InterpreterError("unary operator applied to a pointer")

    return ev


def _b_expr(expr, slots: dict, fname: str, np_mod):
    if isinstance(expr, (Const, Var)):
        return _b_value(expr, slots, fname)
    if isinstance(expr, UnaryExpr):
        return _b_unary(expr, slots, fname, np_mod)
    return _b_bin(expr, slots, fname, np_mod)


# -- per-instruction compilation ---------------------------------------------

class _BCtx:
    __slots__ = (
        "fname", "slots", "np", "nd", "record_trace", "cost_model",
    )

    def __init__(self, fname, slots, np_mod, record_trace, cost_model):
        self.fname = fname
        self.slots = slots
        self.np = np_mod
        self.nd = np_mod.ndarray if np_mod is not None else None
        self.record_trace = record_trace
        self.cost_model = cost_model


def _b_mov(instr: Mov, ctx: _BCtx):
    d = ctx.slots[instr.dest]
    ev = _b_expr(instr.expr, ctx.slots, ctx.fname, ctx.np)

    def op(bregs, bst, _d=d, _ev=ev):
        bregs[_d] = _ev(bregs)

    return op


def _b_load(instr: Load, ctx: _BCtx):
    fname = ctx.fname
    d = ctx.slots[instr.dest]
    pacc = _b_value(instr.array, ctx.slots, fname)
    iacc = _b_value(instr.index, ctx.slots, fname)
    site = f"{fname}:{instr}"
    nd = ctx.nd
    np_mod = ctx.np

    def op(bregs, bst, _pa=pacc, _ia=iacc, _d=d, _site=site, _nd=nd,
           _np=np_mod):
        p = _pa(bregs)
        i = _ia(bregs)
        mems = bst.mems
        n = bst.nlanes
        bank = bst.bank
        if p.__class__ is Pointer and i.__class__ is int \
                and bst.uniform_layout:
            rid = p.region
            r0 = mems[0].regions[rid]
            if bank is not None:
                bank.add_uniform("load", rid, i, mems)
            if 0 <= i < r0.size:
                vals = [m.regions[rid].cells[i] for m in mems]
            else:
                vals = [m.load(p, i, _site) for m in mems]
            bregs[_d] = _pack(vals, _np)
            return
        ps = _lanes_of(p, n, _nd)
        idx = _lanes_of(i, n, _nd)
        if bank is not None:
            bank.ensure_split()
            traces = bank.lane_traces
        vals = []
        for lane in range(n):
            pl = ps[lane]
            if pl.__class__ is not Pointer:
                raise InterpreterError(f"@{fname}: load of a non-pointer")
            il = idx[lane]
            m = mems[lane]
            r = m.regions[pl.region]
            if bank is not None:
                traces[lane].memory.append(
                    MemoryAccess("load", r.name, il,
                                 r.base + il * WORD_BYTES)
                )
            if 0 <= il < r.size:
                vals.append(r.cells[il])
            else:
                vals.append(m.load(pl, il, _site))
        bregs[_d] = _pack(vals, _np)

    return op


def _b_store(instr: Store, ctx: _BCtx):
    fname = ctx.fname
    pacc = _b_value(instr.array, ctx.slots, fname)
    iacc = _b_value(instr.index, ctx.slots, fname)
    vacc = _b_value(instr.value, ctx.slots, fname)
    site = f"{fname}:{instr}"
    nd = ctx.nd

    def op(bregs, bst, _pa=pacc, _ia=iacc, _va=vacc, _site=site, _nd=nd):
        p = _pa(bregs)
        i = _ia(bregs)
        v = _va(bregs)
        mems = bst.mems
        n = bst.nlanes
        bank = bst.bank
        if p.__class__ is Pointer and i.__class__ is int \
                and bst.uniform_layout:
            rid = p.region
            r0 = mems[0].regions[rid]
            if bank is not None:
                bank.add_uniform("store", rid, i, mems)
            vl = _lanes_of(v, n, _nd)
            if 0 <= i < r0.size and r0.writable:
                for lane in range(n):
                    x = vl[lane]
                    if x.__class__ is not int:
                        raise InterpreterError(
                            "storing pointers into memory is not supported"
                        )
                    mems[lane].regions[rid].cells[i] = x
            else:
                for lane in range(n):
                    x = vl[lane]
                    if x.__class__ is not int:
                        raise InterpreterError(
                            "storing pointers into memory is not supported"
                        )
                    mems[lane].store(p, i, x, _site)
            return
        ps = _lanes_of(p, n, _nd)
        idx = _lanes_of(i, n, _nd)
        vl = _lanes_of(v, n, _nd)
        if bank is not None:
            bank.ensure_split()
            traces = bank.lane_traces
        for lane in range(n):
            pl = ps[lane]
            if pl.__class__ is not Pointer:
                raise InterpreterError(f"@{fname}: store to a non-pointer")
            il = idx[lane]
            x = vl[lane]
            if x.__class__ is not int:
                raise InterpreterError(
                    "storing pointers into memory is not supported"
                )
            m = mems[lane]
            r = m.regions[pl.region]
            if bank is not None:
                traces[lane].memory.append(
                    MemoryAccess("store", r.name, il,
                                 r.base + il * WORD_BYTES)
                )
            if 0 <= il < r.size and r.writable:
                r.cells[il] = x
            else:
                m.store(pl, il, x, _site)

    return op


def _b_ctsel(instr: CtSel, ctx: _BCtx):
    d = ctx.slots[instr.dest]
    fname = ctx.fname
    ta = _b_value(instr.if_true, ctx.slots, fname)
    fa = _b_value(instr.if_false, ctx.slots, fname)
    cond = instr.cond
    if isinstance(cond, Const):
        chosen = ta if wrap(cond.value) != 0 else fa

        def op(bregs, bst, _d=d, _c=chosen):
            bregs[_d] = _c(bregs)

        return op
    cacc = _b_value(cond, ctx.slots, fname)
    nd = ctx.nd
    np_mod = ctx.np

    def op(bregs, bst, _d=d, _c=cacc, _t=ta, _f=fa, _nd=nd, _np=np_mod):
        c = _c(bregs)
        cc = c.__class__
        if cc is int:
            bregs[_d] = _t(bregs) if c != 0 else _f(bregs)
            return
        if cc is not list and cc is not _nd:
            raise InterpreterError("ctsel condition is a pointer")
        t = _t(bregs)
        f = _f(bregs)
        tc = t.__class__
        fc = f.__class__
        n = bst.nlanes
        if cc is _nd and (tc is int or tc is _nd) and (fc is int or fc is _nd):
            bregs[_d] = _np.where(c != 0, t, f)
            return
        cl = _lanes_of(c, n, _nd)
        tl = _lanes_of(t, n, _nd)
        fl = _lanes_of(f, n, _nd)
        out = []
        for lane in range(n):
            x = cl[lane]
            if x.__class__ is not int:
                raise InterpreterError("ctsel condition is a pointer")
            out.append(tl[lane] if x != 0 else fl[lane])
        bregs[_d] = _pack(out, _np)

    return op


def _b_alloc(instr: Alloc, ctx: _BCtx):
    d = ctx.slots[instr.dest]
    ev = _b_expr(instr.size, ctx.slots, ctx.fname, ctx.np)
    region_name = f"{ctx.fname}:{instr.dest}"

    def op(bregs, bst, _d=d, _ev=ev, _n=region_name):
        size = _ev(bregs)
        if size.__class__ is not int:
            # Per-lane allocation sizes would desynchronise the layout.
            raise _Fallback("alloc-size")
        pointers = [m.allocate(_n, size) for m in bst.mems]
        p0 = pointers[0]
        if pointers.count(p0) == len(pointers):
            bregs[_d] = p0
        else:
            bregs[_d] = pointers

    return op


def _run_callee(cbf: "_BatchFunction", args: list, bst) -> object:
    """Execute a branch-free callee lock-step, returning its value vector.

    All lanes walk the same ``jmp``/``ret`` skeleton, so step and cycle
    accounting stays in the shared ``base`` counters and memory layouts
    stay synchronised (allocations happen in the same order everywhere).
    """
    scalar = bst.scalar
    if bst.depth + 1 > scalar.max_call_depth:
        raise _Fallback("depth")
    bst.depth += 1
    try:
        cregs: list = [_UNDEF] * cbf.nslots
        if cbf.global_slots:
            g0 = bst.gptrs[0]
            for slot, gname in cbf.global_slots:
                cregs[slot] = g0[gname]
        for slot, value in zip(cbf.param_slots, args):
            cregs[slot] = value
        max_steps = scalar.max_steps
        blocks = cbf.blocks
        bi = 0
        prev = -1
        while True:
            block = blocks[bi]
            bst.base_steps += block.steps
            if bst.base_steps + bst.max_extra_steps > max_steps:
                raise _Fallback("steps")
            bst.base_cycles += block.cycles
            if block.phi_ops is not None:
                block.phi_ops[prev](cregs)
            for op in block.ops:
                op(cregs, bst)
            term = block.term
            kind = term[0]
            if kind == "ret":
                return term[1](cregs)
            if kind != "jmp":
                raise _Fallback("callee-branch")
            nxt = term[1]
            if nxt is None:
                raise KeyError(term[2])
            prev = bi
            bi = nxt
    finally:
        bst.depth -= 1


def _b_call(instr: Call, ctx: _BCtx):
    callee = instr.callee
    accs = tuple(_b_value(a, ctx.slots, ctx.fname) for a in instr.args)
    d = ctx.slots[instr.dest] if instr.dest is not None else None
    nd = ctx.nd
    np_mod = ctx.np
    record_trace = ctx.record_trace
    cost_model = ctx.cost_model

    def op(bregs, bst, _accs=accs, _d=d, _callee=callee, _nd=nd, _np=np_mod):
        n = bst.nlanes
        scalar = bst.scalar
        cf = scalar._target(_callee)
        if cf is None:
            raise InterpreterError(f"call to undefined function @{_callee}")
        # The module comes from the executor: a cached lowering that held
        # it would keep its own cache entry alive.
        cbf = _get_batch_function(
            scalar.module, _callee, record_trace, cost_model, _np
        )
        if cbf.branch_free:
            # The common case (e.g. constant-time helpers): stay lock-step
            # through the callee instead of breaking into per-lane runs.
            ret = _run_callee(cbf, [a(bregs) for a in _accs], bst)
            if _d is not None:
                bregs[_d] = ret
            return
        states = bst.ensure_lane_states()
        lanes_args = [_lanes_of(a(bregs), n, _nd) for a in _accs]
        base_steps = bst.base_steps
        base_cycles = bst.base_cycles
        extra_steps = bst.extra_steps
        extra_cycles = bst.extra_cycles
        depth = bst.depth + 1
        rets = []
        for lane in range(n):
            st = states[lane]
            st.steps = base_steps + extra_steps[lane]
            st.cycles = base_cycles + extra_cycles[lane]
            ret = scalar._exec(
                cf, [args[lane] for args in lanes_args], st, depth
            )
            extra_steps[lane] = st.steps - base_steps
            extra_cycles[lane] = st.cycles - base_cycles
            rets.append(ret)
        bst.max_extra_steps = max(extra_steps)
        # Divergent callee paths may desynchronise region layouts.
        bst.uniform_layout = False
        if _d is not None:
            bregs[_d] = _pack(rets, _np)

    return op


def _b_instr(instr, ctx: _BCtx):
    if isinstance(instr, Mov):
        return _b_mov(instr, ctx)
    if isinstance(instr, Load):
        return _b_load(instr, ctx)
    if isinstance(instr, Store):
        return _b_store(instr, ctx)
    if isinstance(instr, CtSel):
        return _b_ctsel(instr, ctx)
    if isinstance(instr, Alloc):
        return _b_alloc(instr, ctx)
    if isinstance(instr, Call):
        return _b_call(instr, ctx)

    def op(bregs, bst, _i=instr):
        raise InterpreterError(f"unknown instruction {_i}")

    return op


def _mk_extend(segment: tuple):
    def op(bregs, bst, _seg=segment):
        bst.bank.extend_sites(_seg)

    return op


# -- compiled containers and the batch compile cache -------------------------

class _BatchBlock:
    __slots__ = ("steps", "cycles", "phi_ops", "ops", "term", "has_call")

    def __init__(self):
        self.steps = 0
        self.cycles = 0
        self.phi_ops = None
        self.ops = ()
        #: One of ("ret", ev) / ("jmp", index, label) /
        #: ("br", cacc, tidx, fidx, tlabel, flabel) / ("invalid", msg).
        self.term = ("invalid", "block has no terminator")
        self.has_call = False


class _BatchFunction:
    __slots__ = (
        "name", "nslots", "param_slots", "param_names", "global_slots",
        "blocks", "has_calls", "branch_free",
    )


def _compile_batch_function(
    function, module: Module, record_trace: bool, cost_model: CostModel,
    np_mod,
) -> _BatchFunction:
    """Lower one function to lock-step vector ops (mirrors the scalar
    compiler's slot layout and per-block accounting exactly)."""
    fname = function.name
    slots: dict[str, int] = {}
    for gname in module.globals:
        slots.setdefault(gname, len(slots))
    for param in function.params:
        slots.setdefault(param.name, len(slots))
    for _, instr in function.iter_instructions():
        if instr.dest is not None:
            slots.setdefault(instr.dest, len(slots))

    bf = _BatchFunction()
    bf.name = fname
    bf.nslots = len(slots)
    bf.global_slots = tuple((slots[g], g) for g in module.globals)
    bf.param_slots = tuple(slots[p.name] for p in function.params)
    bf.param_names = tuple(p.name for p in function.params)
    bf.has_calls = False

    ctx = _BCtx(fname, slots, np_mod, record_trace, cost_model)

    labels = list(function.blocks)
    block_index = {label: i for i, label in enumerate(labels)}
    preds: list[set] = [set() for _ in labels]
    for i, label in enumerate(labels):
        terminator = function.blocks[label].terminator
        if terminator is not None:
            for succ in terminator.successors():
                j = block_index.get(succ)
                if j is not None:
                    preds[j].add(i)

    compiled = []
    for i, label in enumerate(labels):
        block = function.blocks[label]
        bb = _BatchBlock()
        phis = block.phis()
        non_phis = block.non_phi_instructions()
        bb.steps = len(phis) + len(non_phis) + 1
        bb.cycles = (
            len(phis) * cost_model.phi
            + sum(cost_model.instruction_cost(ins) for ins in non_phis)
            + (cost_model.terminator_cost(block.terminator)
               if block.terminator is not None else 0)
        )
        bb.has_call = any(isinstance(ins, Call) for ins in non_phis)
        bf.has_calls = bf.has_calls or bb.has_call

        if phis:
            phi_ops: dict[int, object] = {}
            if i == 0:

                def entry_raiser(bregs, _f=fname, _l=label):
                    raise InterpreterError(
                        f"@{_f}: entry block {_l} contains phis"
                    )

                phi_ops[-1] = entry_raiser
            for p in preds[i]:
                plabel = labels[p]
                accs = []
                dest_slots = []
                for phi in phis:
                    try:
                        incoming = phi.incoming_from(plabel)
                    except KeyError:

                        def acc(bregs, _phi=phi, _pl=plabel):
                            _phi.incoming_from(_pl)  # raises KeyError

                        accs.append(acc)
                    else:
                        accs.append(_b_value(incoming, slots, fname))
                    dest_slots.append(slots[phi.dest])
                accs_t = tuple(accs)
                slots_t = tuple(dest_slots)

                def phi_op(bregs, _as=accs_t, _ss=slots_t):
                    # Parallel semantics: all reads before any write.
                    values = [a(bregs) for a in _as]
                    for s, v in zip(_ss, values):
                        bregs[s] = v

                phi_ops[p] = phi_op
            bb.phi_ops = phi_ops

        ops = []
        if record_trace:
            # Site segments split at calls, exactly like the scalar
            # backend's prologues: a callee's sites interleave between the
            # call site and the rest of the caller's block.
            sites = [
                (InstructionSite(fname, label, k), None)
                for k in range(len(phis))
            ]
            for k, ins in enumerate(block.instructions):
                if not isinstance(ins, Phi):
                    sites.append((InstructionSite(fname, label, k), ins))
            sites.append(
                (InstructionSite(fname, label, len(block.instructions)),
                 None)
            )
            segments = [[]]
            for pair in sites:
                segments[-1].append(pair)
                if isinstance(pair[1], Call):
                    segments.append([])
            seg_tuples = [tuple(s for s, _ in seg) for seg in segments]
            ops.append(_mk_extend(seg_tuples[0]))
            seg_no = 1
            for ins in non_phis:
                ops.append(_b_instr(ins, ctx))
                if isinstance(ins, Call):
                    ops.append(_mk_extend(seg_tuples[seg_no]))
                    seg_no += 1
        else:
            for ins in non_phis:
                ops.append(_b_instr(ins, ctx))
        bb.ops = tuple(ops)

        terminator = block.terminator
        if isinstance(terminator, Ret):
            bb.term = (
                "ret", _b_expr(terminator.expr, slots, fname, np_mod)
            )
        elif isinstance(terminator, Jmp):
            bb.term = (
                "jmp", block_index.get(terminator.target), terminator.target
            )
        elif isinstance(terminator, Br):
            cond = terminator.cond
            tidx = block_index.get(terminator.if_true)
            fidx = block_index.get(terminator.if_false)
            if isinstance(cond, Const):
                taken = wrap(cond.value) != 0
                bb.term = (
                    "jmp",
                    tidx if taken else fidx,
                    terminator.if_true if taken else terminator.if_false,
                )
            else:
                bb.term = (
                    "br", _b_value(cond, slots, fname), tidx, fidx,
                    terminator.if_true, terminator.if_false,
                )
        elif terminator is None:
            bb.term = ("invalid", "block has no terminator")
        else:
            bb.term = ("invalid", f"unknown terminator {terminator}")
        compiled.append(bb)

    bf.blocks = tuple(compiled)
    bf.branch_free = all(bb.term[0] in ("jmp", "ret") for bb in compiled)
    return bf


#: ``id(module) -> (weakref, {(record_trace, cost_model, numpy): {fname:
#: _BatchFunction}})`` — identity-keyed like the scalar compile cache and,
#: like it, LRU-bounded to ``REPRO_EXEC_CACHE_SIZE`` live module entries
#: (the long-running serve workers pin modules across jobs, so an
#: unbounded cache would grow with every distinct submission).
_BATCH_LOCK = threading.Lock()
_BATCH_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_BATCH_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _cache_get(module, key):
    mid = id(module)
    with _BATCH_LOCK:
        entry = _BATCH_CACHE.get(mid)
        if entry is not None:
            ref, variants = entry
            if ref() is module:
                value = variants.get(key)
                if value is not None:
                    _BATCH_CACHE.move_to_end(mid)
                    _BATCH_STATS["hits"] += 1
                    OBS.counter("exec.batch_cache.hits")
                    return value
            else:
                del _BATCH_CACHE[mid]
    return None


def _cache_put(module, key, value) -> None:
    limit = exec_cache_limit()
    mid = id(module)
    with _BATCH_LOCK:
        _BATCH_STATS["misses"] += 1
        entry = _BATCH_CACHE.get(mid)
        if entry is not None and entry[0]() is module:
            entry[1][key] = value
            _BATCH_CACHE.move_to_end(mid)
        else:
            # The lock and the cache are bound as defaults: at interpreter
            # exit this may run after the module globals are cleared.
            def _evict(_ref, _mid=mid, _lock=_BATCH_LOCK, _cache=_BATCH_CACHE):
                with _lock:
                    stored = _cache.get(_mid)
                    if stored is not None and stored[0] is _ref:
                        del _cache[_mid]

            ref = weakref.ref(module, _evict)
            _BATCH_CACHE[mid] = (ref, {key: value})
            while len(_BATCH_CACHE) > limit:
                _BATCH_CACHE.popitem(last=False)
                _BATCH_STATS["evictions"] += 1
                OBS.counter("exec.batch_cache.evictions")


def _get_batch_function(
    module: Module, name: str, record_trace: bool, cost_model: CostModel,
    np_mod,
) -> _BatchFunction:
    key = (bool(record_trace), cost_model, np_mod is not None)
    functions = _cache_get(module, key)
    if functions is None:
        functions = {}
        OBS.counter("exec.batch_cache.misses")
        _cache_put(module, key, functions)
    bf = functions.get(name)
    if bf is None:
        bf = _compile_batch_function(
            module.function(name), module, record_trace, cost_model, np_mod
        )
        functions[name] = bf
    return bf


def clear_batch_caches() -> None:
    """Drop every cached batch lowering (mainly for tests)."""
    with _BATCH_LOCK:
        _BATCH_CACHE.clear()
        _BATCH_STATS["hits"] = 0
        _BATCH_STATS["misses"] = 0
        _BATCH_STATS["evictions"] = 0


def batch_cache_stats() -> dict:
    """Hit/miss/eviction counters and entry count of the SoA lowering cache."""
    with _BATCH_LOCK:
        return {
            "hits": _BATCH_STATS["hits"],
            "misses": _BATCH_STATS["misses"],
            "evictions": _BATCH_STATS["evictions"],
            "entries": len(_BATCH_CACHE),
        }


# -- lane trace bank ---------------------------------------------------------

class _TraceBank:
    """Copy-on-write trace storage for all lanes of one chunk.

    While every lane observes the same instruction sites and the same data
    addresses (the common case: repaired, data-invariant code over a
    uniform memory layout) one shared sequence is recorded.  The bank
    splits into per-lane :class:`Trace` objects the moment anything
    lane-varying happens — a call (callee sites interleave per lane), a
    non-uniform address, or a non-uniform region layout.
    """

    __slots__ = ("n", "shared_sites", "shared_mem", "lane_traces")

    def __init__(self, n: int):
        self.n = n
        self.shared_sites: list = []
        self.shared_mem: list = []
        self.lane_traces = None

    def ensure_split(self) -> None:
        if self.lane_traces is None:
            self.lane_traces = [
                Trace(
                    instructions=list(self.shared_sites),
                    memory=list(self.shared_mem),
                )
                for _ in range(self.n)
            ]

    def extend_sites(self, segment: tuple) -> None:
        if self.lane_traces is None:
            self.shared_sites.extend(segment)
        else:
            for trace in self.lane_traces:
                trace.instructions.extend(segment)

    def add_uniform(self, kind: str, rid: int, index: int, mems) -> None:
        if self.lane_traces is None:
            region = mems[0].regions[rid]
            self.shared_mem.append(
                MemoryAccess(kind, region.name, index,
                             region.base + index * WORD_BYTES)
            )
        else:
            for lane, trace in enumerate(self.lane_traces):
                region = mems[lane].regions[rid]
                trace.memory.append(
                    MemoryAccess(kind, region.name, index,
                                 region.base + index * WORD_BYTES)
                )

    def compact(self, keep: list) -> None:
        self.n = len(keep)
        if self.lane_traces is not None:
            self.lane_traces = [self.lane_traces[i] for i in keep]

    def finalize(self, lane: int) -> Trace:
        if self.lane_traces is None:
            return Trace(
                instructions=list(self.shared_sites),
                memory=list(self.shared_mem),
            )
        return self.lane_traces[lane]


# -- lock-step execution state -----------------------------------------------

class _BatchState:
    __slots__ = (
        "nlanes", "mems", "gptrs", "bank", "np", "scalar",
        "base_steps", "base_cycles", "extra_steps", "extra_cycles",
        "max_extra_steps", "lane_states", "uniform_layout", "depth",
    )

    def __init__(self, nlanes, mems, gptrs, bank, np_mod, scalar,
                 uniform_layout):
        self.nlanes = nlanes
        self.mems = mems
        self.gptrs = gptrs
        self.bank = bank
        self.np = np_mod
        self.scalar = scalar
        self.base_steps = 0
        self.base_cycles = 0
        self.extra_steps = [0] * nlanes
        self.extra_cycles = [0] * nlanes
        self.max_extra_steps = 0
        self.lane_states = None
        self.uniform_layout = uniform_layout
        self.depth = 0

    def ensure_lane_states(self):
        if self.lane_states is None:
            if self.bank is not None:
                self.bank.ensure_split()
                traces = self.bank.lane_traces
            else:
                traces = [None] * self.nlanes
            self.lane_states = [
                _RunState(self.mems[lane], self.gptrs[lane], traces[lane],
                          None, self.scalar)
                for lane in range(self.nlanes)
            ]
        return self.lane_states


# -- the executor ------------------------------------------------------------

class BatchExecutor:
    """Drop-in third backend: scalar ``run`` plus a ``run_batch`` API.

    :meth:`run` delegates to an internal :class:`CompiledExecutor` (built
    with the same options), so any call site that treats this object like
    the scalar backends keeps exact scalar behaviour.  :meth:`run_batch`
    is the structure-of-arrays entry point used by ``run_many``.
    """

    def __init__(
        self,
        module: Module,
        strict_memory: bool = True,
        record_trace: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cache=None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
        batch_size: Optional[int] = None,
        use_numpy: Optional[bool] = None,
    ) -> None:
        self.module = module
        self.strict_memory = strict_memory
        self.record_trace = record_trace
        self.cost_model = cost_model
        self.cache = cache
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.batch_size = (
            batch_size if batch_size is not None
            else knob("REPRO_BATCH_SIZE")
        )
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        numpy_wanted = (
            use_numpy if use_numpy is not None
            else knob("REPRO_BATCH_NUMPY")
        )
        self.np = _np if (numpy_wanted and _np is not None) else None
        self._scalar = CompiledExecutor(
            module,
            strict_memory=strict_memory,
            record_trace=record_trace,
            cost_model=cost_model,
            cache=cache,
            max_steps=max_steps,
            max_call_depth=max_call_depth,
        )

    # -- public API ----------------------------------------------------------

    def run(self, name: str, args: Sequence[object]) -> ExecutionResult:
        """Scalar execution (bit-identical to the compiled backend)."""
        return self._scalar.run(name, args)

    def run_batch(
        self, name: str, vectors: Sequence[Sequence[object]]
    ) -> list[ExecutionResult]:
        """Execute ``@name`` once per argument vector, lock-step.

        Per-lane results are bit-identical to ``[run(name, v) for v in
        vectors]``, including the order in which per-lane exceptions
        surface.  Lanes the lock-step engine cannot carry (divergent
        branches, unsupported shapes, any error) abort to scalar re-runs.
        """
        vectors = [list(v) for v in vectors]
        n = len(vectors)
        if n == 0:
            return []
        if OBS.enabled:
            OBS.counter("exec.batch.dispatch")
            OBS.counter("exec.batch.lanes", n)
        if self.cache is not None or n == 1 or not self._supported(vectors):
            if OBS.enabled and n > 1:
                OBS.counter("exec.batch.fallback")
            return [self._scalar.run(name, list(v)) for v in vectors]

        # Deduplicate identical vectors: the executor is deterministic, so
        # equal inputs imply equal observables (dudect's fixed class
        # collapses to one lane per chunk).
        keys = [
            tuple(tuple(a) if isinstance(a, list) else a for a in v)
            for v in vectors
        ]
        first_of: dict = {}
        unique_positions = []
        for pos, key in enumerate(keys):
            if key not in first_of:
                first_of[key] = pos
                unique_positions.append(pos)
        if OBS.enabled and len(unique_positions) < n:
            OBS.counter("exec.batch.dedup", n - len(unique_positions))

        out: list = [None] * n
        size = self.batch_size
        for start in range(0, len(unique_positions), size):
            chunk = unique_positions[start:start + size]
            chunk_vectors = [vectors[pos] for pos in chunk]
            results = self._run_chunk(name, chunk_vectors)
            for pos, result in zip(chunk, results):
                out[pos] = result
        for pos, key in enumerate(keys):
            rep = first_of[key]
            if rep != pos:
                out[pos] = _copy_result(out[rep])
        return out

    # -- chunk orchestration -------------------------------------------------

    def _supported(self, vectors) -> bool:
        """Lock-step needs int/list arguments (a caller-owned ``Pointer``
        would alias one memory across lanes and scalar replays)."""
        for vector in vectors:
            for arg in vector:
                if not isinstance(arg, (int, list)):
                    return False
        return True

    def _run_chunk(self, name, vectors) -> list:
        if len(vectors) == 1:
            return [self._scalar.run(name, list(vectors[0]))]
        try:
            return self._lockstep(name, vectors)
        except _Fallback as fallback:
            if OBS.enabled:
                OBS.counter("exec.batch.fallback")
                OBS.counter(f"exec.batch.fallback.{fallback.reason}")
        except Exception:
            # Anything the lock-step engine cannot reproduce exactly —
            # including genuine program errors, which must surface in lane
            # order — is replayed scalar, sequentially.
            if OBS.enabled:
                OBS.counter("exec.batch.abort.error")
        return [self._scalar.run(name, list(v)) for v in vectors]

    def _lockstep(self, name, vectors) -> list:
        function = self.module.function(name)
        nparams = len(function.params)
        for vector in vectors:
            if len(vector) != nparams:
                raise _Fallback("arity")
        bf = _get_batch_function(
            self.module, name, self.record_trace, self.cost_model, self.np
        )
        out: list = [None] * len(vectors)
        self._exec_blocks(name, bf, vectors, list(range(len(vectors))), out)
        return out

    def _setup(self, bf: _BatchFunction, vectors, lanes):
        """Allocate per-lane memories and seed the SoA register file."""
        n = len(lanes)
        mems = [Memory(strict=self.strict_memory) for _ in range(n)]
        gptrs = []
        for memory in mems:
            pointers = {}
            for array in self.module.globals.values():
                pointers[array.name] = memory.allocate(
                    f"@{array.name}", array.size, array.initial_contents()
                )
            gptrs.append(pointers)

        bregs: list = [_UNDEF] * bf.nslots
        if bf.global_slots and n:
            for slot, gname in bf.global_slots:
                bregs[slot] = gptrs[0][gname]

        uniform_layout = True
        array_pointers = []  # per param: None or per-lane pointer list
        for pi, slot in enumerate(bf.param_slots):
            vals = [vectors[lane][pi] for lane in lanes]
            v0 = vals[0]
            if isinstance(v0, list):
                if not all(isinstance(v, list) for v in vals):
                    raise _Fallback("arg-shape")
                sizes = {len(v) for v in vals}
                if len(sizes) > 1:
                    uniform_layout = False
                pointers = [
                    mems[i].allocate(
                        f"arg:{bf.param_names[pi]}", len(vals[i]),
                        list(vals[i]),
                    )
                    for i in range(n)
                ]
                p0 = pointers[0]
                bregs[slot] = (
                    p0 if pointers.count(p0) == n else pointers
                )
                array_pointers.append(pointers)
            elif isinstance(v0, int):
                if not all(isinstance(v, int) for v in vals):
                    raise _Fallback("arg-shape")
                bregs[slot] = _pack([wrap(v) for v in vals], self.np)
                array_pointers.append(None)
            else:
                raise _Fallback("arg-shape")

        bank = None
        if self.record_trace:
            bank = _TraceBank(n)
            if not uniform_layout:
                bank.ensure_split()
        bst = _BatchState(
            n, mems, gptrs, bank, self.np, self._scalar, uniform_layout
        )
        return bst, bregs, array_pointers

    # -- lock-step driver ----------------------------------------------------

    def _exec_blocks(self, name, bf, vectors, lanes, out) -> None:
        bst, bregs, array_pointers = self._setup(bf, vectors, lanes)
        max_steps = self.max_steps
        if self.max_call_depth < 0:
            raise _Fallback("depth")
        nd = self.np.ndarray if self.np is not None else None
        blocks = bf.blocks
        bi = 0
        prev = -1
        while True:
            block = blocks[bi]
            bst.base_steps += block.steps
            if bst.base_steps + bst.max_extra_steps > max_steps:
                raise _Fallback("steps")
            bst.base_cycles += block.cycles
            phi_ops = block.phi_ops
            if phi_ops is not None:
                phi_ops[prev](bregs)
            for op in block.ops:
                op(bregs, bst)
            term = block.term
            kind = term[0]
            if kind == "ret":
                self._finalize(
                    term[1](bregs), bst, bregs, array_pointers, lanes, out
                )
                return
            if kind == "jmp":
                nxt = term[1]
                if nxt is None:
                    raise KeyError(term[2])
            elif kind == "br":
                cacc, tidx, fidx, tlabel, flabel = term[1:]
                c = cacc(bregs)
                cc = c.__class__
                if cc is int:
                    taken = c != 0
                    divergent = []
                elif nd is not None and cc is nd:
                    flags = c != 0
                    taken = bool(flags[0])
                    mask = flags != taken
                    divergent = [
                        int(i) for i in self.np.nonzero(mask)[0]
                    ]
                elif cc is list:
                    for x in c:
                        if x.__class__ is not int:
                            raise InterpreterError(
                                "branch condition is a pointer"
                            )
                    taken = c[0] != 0
                    divergent = [
                        i for i, x in enumerate(c) if (x != 0) != taken
                    ]
                else:
                    raise InterpreterError("branch condition is a pointer")
                if divergent:
                    # Lanes disagreeing with the first live lane leave
                    # lock-step and re-run scalar.
                    if OBS.enabled:
                        OBS.counter("exec.batch.diverge", len(divergent))
                    for i in divergent:
                        out[lanes[i]] = self._scalar.run(
                            name, list(vectors[lanes[i]])
                        )
                    divergent_set = set(divergent)
                    keep = [
                        i for i in range(bst.nlanes)
                        if i not in divergent_set
                    ]
                    if not keep:
                        return
                    lanes = [lanes[i] for i in keep]
                    array_pointers = [
                        [p[i] for i in keep] if p is not None else None
                        for p in array_pointers
                    ]
                    self._compact(bst, bregs, keep)
                nxt = tidx if taken else fidx
                if nxt is None:
                    raise KeyError(tlabel if taken else flabel)
            else:
                raise InterpreterError(term[1])
            prev = bi
            bi = nxt

    # -- shared plumbing -----------------------------------------------------

    def _compact(self, bst: _BatchState, bregs: list, keep: list) -> None:
        nd = self.np.ndarray if self.np is not None else None
        for slot, vec in enumerate(bregs):
            c = vec.__class__
            if c is list:
                bregs[slot] = [vec[i] for i in keep]
            elif nd is not None and c is nd:
                bregs[slot] = vec[keep]
        bst.mems = [bst.mems[i] for i in keep]
        bst.gptrs = [bst.gptrs[i] for i in keep]
        bst.extra_steps = [bst.extra_steps[i] for i in keep]
        bst.extra_cycles = [bst.extra_cycles[i] for i in keep]
        bst.max_extra_steps = max(bst.extra_steps)
        if bst.lane_states is not None:
            bst.lane_states = [bst.lane_states[i] for i in keep]
        if bst.bank is not None:
            bst.bank.compact(keep)
        bst.nlanes = len(keep)

    def _finalize(self, ret_vec, bst, bregs, array_pointers, lanes, out):
        n = bst.nlanes
        nd = self.np.ndarray if self.np is not None else None
        rc = ret_vec.__class__
        if rc is int:
            values = [ret_vec] * n
        elif nd is not None and rc is nd:
            values = ret_vec.tolist()
        elif rc is list:
            values = ret_vec
        else:
            values = None
        if values is None or any(v.__class__ is not int for v in values):
            raise InterpreterError(
                "function returns a pointer; only word results are supported"
            )
        for i in range(n):
            memory = bst.mems[i]
            arrays = [
                memory.snapshot(p[i]) if p is not None else None
                for p in array_pointers
            ]
            global_state = {
                gname: memory.snapshot(pointer)
                for gname, pointer in bst.gptrs[i].items()
            }
            out[lanes[i]] = ExecutionResult(
                value=values[i],
                cycles=bst.base_cycles + bst.extra_cycles[i],
                steps=bst.base_steps + bst.extra_steps[i],
                trace=bst.bank.finalize(i) if bst.bank is not None else None,
                violations=list(memory.violations),
                arrays=arrays,
                global_state=global_state,
            )


def _copy_result(result: ExecutionResult) -> ExecutionResult:
    """Fresh containers for a deduplicated lane's result."""
    trace = result.trace
    return ExecutionResult(
        value=result.value,
        cycles=result.cycles,
        steps=result.steps,
        trace=(
            Trace(
                instructions=list(trace.instructions),
                memory=list(trace.memory),
            )
            if trace is not None else None
        ),
        violations=list(result.violations),
        arrays=[
            list(a) if a is not None else None for a in result.arrays
        ],
        global_state={k: list(v) for k, v in result.global_state.items()},
    )
