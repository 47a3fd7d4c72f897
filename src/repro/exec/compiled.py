"""Compiled execution backend: hot functions lowered once to Python source.

The tree-walking :class:`repro.exec.interpreter.Interpreter` re-resolves
every instruction on every dynamic step: an ``isinstance`` dispatch chain
over the instruction classes, a second chain over expression shapes, a
``Const``/``Var`` test per operand, and a dict lookup per variable.  For the
figure benchmarks and the dudect-style leak hunts — thousands of executions
per routine per input class — that dispatch dominates the run time.

This backend translates each :class:`~repro.ir.function.Function` **once**,
when it gets hot, into generated Python source — one ``def`` per basic
block, all blocks of a function compiled together — and then runs the
generated functions:

* every operand is resolved at compile time — constants become literals,
  variables become integer indices into a flat register file (a plain
  Python list), so the hot path performs no dict lookups and no
  ``isinstance`` dispatch, and a binary ``mov`` is a single line;
* the phi moves of every incoming edge are emitted inline, selected by the
  index of the predecessor block;
* branch targets are bound to block indices at compile time;
* per-block step and cycle totals are precomputed, so the dispatch loop
  updates the counters once per basic block instead of once per
  instruction;
* in trace mode the per-block instruction-site sequence is a precomputed
  tuple appended in bulk (split after every call, so a callee's sites
  interleave exactly as the interpreter records them).

Errors are not checked instruction by instruction.  Each block body runs
under one ``try`` guard; a bad operand surfaces as an ordinary Python error
(``TypeError`` from arithmetic on a pointer, ``AttributeError`` from a load
through a word…), and the few shapes that raise nothing on an undefined
register — copies, ``==``/``!=``, ctsel arms, phi incomings and call
arguments — carry an inline ``is _UNDEF`` test that raises :class:`_Bail`.
The guard maps the failing source line to its instruction through a table
the emitter records, and re-evaluates that one instruction with the
interpreter on the current registers, so the error raised is exactly the
interpreter's.  Errors the interpreter itself raises — from callees, from
memory safety, from the step limit — pass through unchanged.

Observable semantics are identical to the interpreter's: same results,
same simulated cycles and step counts, same memory-safety violations, same
instruction/memory traces, and the same cache-hierarchy simulation (the
compiled code reuses :func:`repro.exec.interpreter._layout_instructions`
for exact instruction-address parity).  The one deliberate divergence is
*where inside a basic block* ``StepLimitExceeded`` fires: the compiled
backend checks the limit per block rather than per instruction, which is
unobservable for any run that terminates normally.

Until then a function is cold and the executor interprets it
(:class:`CompiledExecutor` is an :class:`Interpreter`): each function has
one call target that counts the calls finding it cold, and compiles it
once the count passes the executor's ``hot_calls`` threshold — 0 for the
``compiled`` backend, :data:`HOT_CALLS` for ``auto``.  A function whose
CFG has a cycle is compiled at its first call, since a running frame
never changes tier.  Interpreted and compiled frames call each other
through ``state.executor._exec`` on one run state, so traces, cache
fetches and step/cycle counts interleave exactly as in either tier alone.

Call targets live in a process-wide cache keyed on **module identity**
(not name) plus the options that affect code generation, so counts and
compiled code are shared by every executor of a module and option set.
Entries are evicted via weakref callbacks when a module is garbage
collected; a rebuilt module (repair, optimize) is a new object and
therefore never sees stale code.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import OrderedDict

from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.interpreter import (
    DEFAULT_MAX_CALL_DEPTH,
    DEFAULT_MAX_STEPS,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
    _Frame,
    _RunState,
)
from repro.exec.memory import MemorySafetyViolation
from repro.exec.traces import InstructionSite, MemoryAccess
from repro.ir.cfg import is_acyclic
from repro.ir.function import Function
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

#: Sentinel stored in register slots that have not been written yet.
_UNDEF = object()


# -- source emission ---------------------------------------------------------
#
# Generated code relies on two Python facts to find bad operands without a
# test per operand: arithmetic, comparisons and attribute access raise on a
# Pointer or on _UNDEF, and ``x | 0`` is the identity on ints but raises on
# anything else — so ``| 0`` is the word check where a value is only moved
# or tested for truth (ret, br and ctsel conditions, alloc sizes, stored
# values, and the operands of the "/" and "%" helpers, which return 0 for a
# zero divisor without touching the dividend).

_SLIT = str(1 << (WORD_BITS - 1))
_MLIT = str((1 << WORD_BITS) - 1)


def _wrap_src(expr: str) -> str:
    """Source text computing ``wrap(expr)`` for an arbitrary Python int."""
    return f"((({expr}) + {_SLIT}) & {_MLIT}) - {_SLIT}"


def _bin_src(op: str, a: str, b: str) -> str:
    """Source for ``eval_binop(op, a, b)`` on word operands ``a`` and ``b``."""
    if op in ("+", "-", "*"):
        return _wrap_src(f"{a} {op} {b}")
    if op in ("&", "|", "^"):
        return _wrap_src(f"({a} {op} {b})")
    if op == "<<":
        return _wrap_src(f"{a} << ({b} % {WORD_BITS})")
    if op == ">>":
        return _wrap_src(f"({a} & {_MLIT}) >> ({b} % {WORD_BITS})")
    if op in ("<", "<=", ">", ">="):
        return f"1 if {a} {op} {b} else 0"
    helper = "_div" if op == "/" else "_mod"
    return f"{helper}({a} | 0, {b} | 0)"


class _Bail(Exception):
    """Raised by an inline check in generated code; the block's guard turns
    it into the interpreter's error for the instruction on that line."""


def _fetch_instructions(state, addresses: tuple, penalty: int) -> None:
    """Simulate the instruction fetches of one run of sites."""
    fetch = state.cache.instr_fetch
    for address in addresses:
        if not fetch(address):
            state.cycles += penalty


class _Emitter:
    """Generated source of one function, its globals, and the line table.

    ``sites[n]`` is what line ``n + 1`` of the source evaluates, as the
    guard needs it: ``("instr", instruction)``, ``("call", call)``,
    ``("phis", block)``, ``("term", terminator)``, or None for lines that
    cannot fail.
    """

    def __init__(self, fname: str, slots: dict, shells: dict,
                 record_trace: bool, cache_enabled: bool, cost_model):
        self.fname = fname
        self.slots = slots
        self.shells = shells
        self.record_trace = record_trace
        self.cache_enabled = cache_enabled
        self.penalty = cost_model.cache_miss_penalty
        self.lines: list[str] = []
        self.sites: list = []
        self.indent = 0
        self.env: dict = {
            "_UNDEF": _UNDEF,
            "_Bail": _Bail,
            "_MA": MemoryAccess,
            "_div": functools.partial(eval_binop, "/"),
            "_mod": functools.partial(eval_binop, "%"),
            "_fetch": _fetch_instructions,
        }
        self._bound: dict[int, str] = {}

    def bind(self, obj) -> str:
        """Expose a Python object to the generated code (once per object)."""
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_h{len(self._bound)}"
            self._bound[id(obj)] = name
            self.env[name] = obj
        return name

    def emit(self, line: str, site=None) -> None:
        self.lines.append("    " * self.indent + line)
        self.sites.append(site)

    def value(self, value) -> str:
        """Source for an operand; a name with no slot is never defined."""
        if isinstance(value, Const):
            return repr(wrap(value.value))
        slot = self.slots.get(value.name)
        return "_UNDEF" if slot is None else f"regs[{slot}]"

    def word(self, value) -> str:
        """Source for an operand that must hold a word."""
        if isinstance(value, Const):
            return repr(wrap(value.value))
        return f"{self.value(value)} | 0"

    def defined(self, values, site) -> list[str]:
        """Sources for operands that must be defined, behind one inline
        ``is _UNDEF`` test (for uses that would not raise on their own)."""
        sources, tests = [], []
        for value in values:
            if isinstance(value, Const):
                sources.append(repr(wrap(value.value)))
            else:
                local = f"t{len(tests)}"
                tests.append(f"({local} := {self.value(value)}) is _UNDEF")
                sources.append(local)
        if tests:
            self.emit(f"if {' or '.join(tests)}: raise _Bail", site)
        return sources

    def record(self, sites: tuple, addresses: tuple) -> None:
        """Emit the trace/cache bookkeeping for a run of instruction sites."""
        if self.record_trace:
            self.emit(f"state.trace.instructions.extend({self.bind(sites)})")
        if self.cache_enabled:
            self.emit(f"_fetch(state, {addresses!r}, {self.penalty})")

    def build(self, shell: "_CompiledFunction") -> dict:
        """Compile the accumulated source; returns its globals."""
        self.env["_fail"] = shell.fail
        code = compile("\n".join(self.lines) + "\n",
                       f"<repro.exec.compiled:{self.fname}>", "exec")
        exec(code, self.env)
        return self.env


def _expr_src(em: _Emitter, expr, site) -> str:
    """Source computing a mov/ret/alloc expression."""
    if isinstance(expr, (Const, Var)):
        return em.defined([expr], site)[0]
    if isinstance(expr, UnaryExpr):
        operand = expr.operand
        if isinstance(operand, Const):
            return repr(eval_unop(expr.op, wrap(operand.value)))
        if expr.op == "!":
            return f"0 if {em.word(operand)} else 1"
        return _wrap_src(f"{expr.op}{em.value(operand)}")
    op, lhs, rhs = expr.op, expr.lhs, expr.rhs
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return repr(eval_binop(op, wrap(lhs.value), wrap(rhs.value)))
    if op in ("==", "!="):
        # Pointers may be compared, so only undefinedness needs a test.
        a, b = em.defined([lhs, rhs], site)
        return f"1 if {a} {op} {b} else 0"
    return _bin_src(op, em.value(lhs), em.value(rhs))


def _word_expr_src(em: _Emitter, expr, site) -> str:
    """Like :func:`_expr_src`, for a result that must be a word."""
    if isinstance(expr, Var):
        return em.word(expr)
    return _expr_src(em, expr, site)


def _emit_access(em: _Emitter, instr, kind: str, site) -> str:
    """The shared head of a load or store: region ``r``, pointer ``p``,
    index ``i`` and, when observing, the traced and cached data access.
    Returns the access site as a source literal, for violation reports."""
    em.emit(f"r = state.regions[(p := {em.value(instr.array)}).region]", site)
    em.emit(f"i = {em.value(instr.index)}", site)
    if kind == "store":
        em.emit(f"v = {em.word(instr.value)}", site)
    if em.record_trace or em.cache_enabled:
        em.emit(f"addr = r.base + i * {WORD_BYTES}", site)
        if em.record_trace:
            em.emit(f'state.trace.memory.append(_MA("{kind}", r.name, i, addr))')
        if em.cache_enabled:
            em.emit(f"if not state.cache.data_access(addr, is_write="
                    f"{kind == 'store'}): state.cycles += {em.penalty}")
    return repr(f"{em.fname}:{instr}")


def _emit_instr(em: _Emitter, instr) -> None:
    site = ("instr", instr)
    slots = em.slots
    if isinstance(instr, Mov):
        em.emit(f"regs[{slots[instr.dest]}] = "
                f"{_expr_src(em, instr.expr, site)}", site)
    elif isinstance(instr, Load):
        where = _emit_access(em, instr, "load", site)
        em.emit(f"regs[{slots[instr.dest]}] = r.cells[i] if 0 <= i < r.size "
                f"else state.memory.load(p, i, {where})", site)
    elif isinstance(instr, Store):
        where = _emit_access(em, instr, "store", site)
        em.emit("if 0 <= i < r.size and r.writable: r.cells[i] = v", site)
        em.emit(f"else: state.memory.store(p, i, v, {where})", site)
    elif isinstance(instr, CtSel):
        d = slots[instr.dest]
        if isinstance(instr.cond, Const):
            chosen = (instr.if_true if wrap(instr.cond.value) != 0
                      else instr.if_false)
            em.emit(f"regs[{d}] = {em.defined([chosen], site)[0]}", site)
        else:
            em.emit(f"regs[{d}] = v = {em.value(instr.if_true)} if "
                    f"{em.word(instr.cond)} else {em.value(instr.if_false)}",
                    site)
            if isinstance(instr.if_true, Var) or isinstance(instr.if_false,
                                                            Var):
                em.emit("if v is _UNDEF: raise _Bail", site)
    elif isinstance(instr, Alloc):
        em.emit(f"regs[{slots[instr.dest]}] = state.memory.allocate("
                f"{em.fname + ':' + instr.dest!r}, "
                f"{_word_expr_src(em, instr.size, site)})", site)
    elif isinstance(instr, Call):
        site = ("call", instr)
        callee = em.shells.get(instr.callee)
        if callee is None:
            em.emit("raise _Bail", site)
            return
        args = ", ".join(em.defined(instr.args, site))
        call = (f"state.executor._exec({em.bind(callee)}, [{args}], state, "
                "depth + 1)")
        if instr.dest is not None:
            call = f"regs[{slots[instr.dest]}] = {call}"
        em.emit(call, site)
    else:
        em.emit("raise _Bail", site)


def _emit_phis(em: _Emitter, block, preds: list, labels: list) -> None:
    """Parallel phi moves per incoming edge, selected on ``prev`` (which is
    negative when the block runs as the function entry: an error)."""
    site = ("phis", block)
    phis = block.phis()
    dests = ", ".join(f"regs[{em.slots[phi.dest]}]" for phi in phis)
    em.emit("if prev < 0: raise _Bail", site)
    for n, pred in enumerate(preds):
        em.emit("else:" if n == len(preds) - 1 else f"elif prev == {pred}:",
                site)
        em.indent += 1
        try:
            incoming = [phi.incoming_from(labels[pred]) for phi in phis]
        except KeyError:
            em.emit("raise _Bail", site)
        else:
            em.emit(f"{dests} = {', '.join(em.defined(incoming, site))}",
                    site)
        em.indent -= 1


def _goto(target) -> str:
    return "raise _Bail" if target is None else f"return {target}"


def _emit_terminator(em: _Emitter, terminator, block_index: dict) -> None:
    site = ("term", terminator)
    if isinstance(terminator, Ret):
        em.emit(f"state.ret = {_word_expr_src(em, terminator.expr, site)}",
                site)
        em.emit("return", site)
    elif isinstance(terminator, Jmp):
        em.emit(_goto(block_index.get(terminator.target)), site)
    elif isinstance(terminator, Br) and isinstance(terminator.cond, Const):
        taken = (terminator.if_true if wrap(terminator.cond.value) != 0
                 else terminator.if_false)
        em.emit(_goto(block_index.get(taken)), site)
    elif isinstance(terminator, Br):
        em.emit(f"if {em.word(terminator.cond)}: "
                f"{_goto(block_index.get(terminator.if_true))}", site)
        em.emit(_goto(block_index.get(terminator.if_false)), site)
    else:
        em.emit("raise _Bail", site)


def _site_runs(em: _Emitter, block, addresses: dict) -> list:
    """The block's instruction sites (and their I-cache addresses) in the
    runs they are recorded in.  The interpreter records each site just
    before executing it, so a callee's sites interleave between a call
    site and the rest of the caller's block: every run ends at a call."""
    runs = [list(range(len(block.phis())))]
    for k, instr in enumerate(block.instructions):
        if not isinstance(instr, Phi):
            runs[-1].append(k)
            if isinstance(instr, Call):
                runs.append([])
    runs[-1].append(len(block.instructions))
    fname, label = em.fname, block.label
    return [
        (tuple(InstructionSite(fname, label, k) for k in run),
         tuple(addresses[(fname, label, k)] for k in run)
         if em.cache_enabled else ())
        for run in runs
    ]


def _emit_block(em: _Emitter, index: int, block, preds: list, labels: list,
                block_index: dict, addresses: dict) -> None:
    """One block as ``_b<index>(regs, state, depth, prev)``: site/cache
    prologue, phi moves, body and terminator, all under one guard."""
    runs = (_site_runs(em, block, addresses)
            if em.record_trace or em.cache_enabled else None)
    em.indent = 0
    em.emit(f"def _b{index}(regs, state, depth, prev):")
    em.indent = 1
    em.emit("try:")
    em.indent = 2
    if runs:
        em.record(*runs[0])
    if block.phis():
        _emit_phis(em, block, preds, labels)
    calls = 0
    for instr in block.non_phi_instructions():
        _emit_instr(em, instr)
        if runs and isinstance(instr, Call):
            calls += 1
            em.record(*runs[calls])
    _emit_terminator(em, block.terminator, block_index)
    em.indent = 1
    em.emit("except Exception as e:")
    em.indent = 2
    em.emit("_fail(e, regs, state, prev)")


# -- compiled containers -----------------------------------------------------

class _CompiledBlock:
    __slots__ = ("steps", "cycles", "fn")

    def __init__(self, steps: int, cycles: int):
        self.steps = steps
        self.cycles = cycles
        self.fn = None


class _CompiledFunction:
    """One function of a compile-cache entry: the call target that
    generated callers bind, cold (``blocks`` None, interpreted) until
    :func:`_fill_function` fills it.  ``calls`` counts the calls that
    found it cold; ``loops`` marks a CFG with a cycle, which is compiled
    at its first call (a running frame never changes tier)."""

    __slots__ = (
        "name", "function", "calls", "loops", "nslots", "param_slots",
        "global_slots", "blocks", "slot_names", "labels", "sites",
    )

    def __init__(self, function: Function):
        self.name = function.name
        self.function = function
        self.calls = 0
        try:
            self.loops = not is_acyclic(function)
        except (KeyError, ValueError):
            # A jump to an undefined label, or no blocks: the run fails
            # when it gets there, in either tier.
            self.loops = False
        self.nslots = 0
        self.param_slots = ()
        self.global_slots = ()
        self.blocks = None
        self.slot_names = ()
        self.labels = ()
        self.sites = ()

    def fail(self, exc: Exception, regs: list, state: _RunState,
             prev: int) -> None:
        """The guard of every generated block: raise the interpreter's
        error for the instruction whose line raised ``exc``."""
        if isinstance(exc, (InterpreterError, MemorySafetyViolation)):
            raise exc
        site = self.sites[exc.__traceback__.tb_lineno - 1]
        if site is None or (site[0] == "call" and not isinstance(exc, _Bail)):
            raise exc  # not an operand fault: e.g. the callee's own error
        kind, obj = site
        function = self.function
        interp = Interpreter(state.executor.module,
                             strict_memory=state.executor.strict_memory,
                             record_trace=False)
        frame = _Frame(function, {
            name: regs[slot] for name, slot in self.slot_names
            if regs[slot] is not _UNDEF
        })
        run_state = _RunState(state.memory, state.global_pointers, None, None,
                              interp)
        try:
            if kind == "phis":
                pred = self.labels[prev] if prev >= 0 else None
                interp._execute_phis(function, obj, pred, frame, run_state)
            elif kind == "term":
                interp._terminate(function, obj, frame)
            elif kind == "call":
                interp._call_args(obj, frame)
            else:
                interp._execute(obj, frame, run_state, 0)
        except Exception as err:
            # Report the interpreter's error alone, not as a failure
            # raised while handling ``exc``.
            raise err from None
        raise exc  # the interpreter accepts the instruction


class CompiledModule:
    """One compile-cache entry: a call target per function of one module,
    for one option set, shared by every executor of the two."""

    __slots__ = ("module_name", "functions")

    def __init__(self, module: Module):
        self.module_name = module.name
        self.functions = {
            name: _CompiledFunction(function)
            for name, function in module.functions.items()
        }


def _fill_function(
    shell: _CompiledFunction,
    module: Module,
    shells: dict,
    record_trace: bool,
    cache_enabled: bool,
    cost_model: CostModel,
    addresses: dict,
) -> None:
    """Compile ``shell``'s function.  ``shell.blocks`` is assigned last:
    other threads may call the shell meanwhile, and run it compiled only
    once it is complete."""
    function = shell.function
    fname = function.name

    # Slot allocation: globals first (the interpreter seeds the frame env
    # with the global pointers), then parameters (which shadow globals of
    # the same name), then every instruction destination.
    slots: dict[str, int] = {}
    for gname in module.globals:
        slots.setdefault(gname, len(slots))
    for param in function.params:
        slots.setdefault(param.name, len(slots))
    for _, instr in function.iter_instructions():
        if instr.dest is not None:
            slots.setdefault(instr.dest, len(slots))

    shell.nslots = len(slots)
    shell.global_slots = tuple((slots[g], g) for g in module.globals)
    shell.param_slots = tuple(slots[p.name] for p in function.params)
    shell.slot_names = tuple(slots.items())

    labels = list(function.blocks)
    block_index = {label: i for i, label in enumerate(labels)}
    preds: list[set[int]] = [set() for _ in labels]
    for i, label in enumerate(labels):
        terminator = function.blocks[label].terminator
        if terminator is not None:
            for succ in terminator.successors():
                j = block_index.get(succ)
                if j is not None:
                    preds[j].add(i)

    em = _Emitter(fname, slots, shells, record_trace, cache_enabled,
                  cost_model)
    blocks = []
    for i, label in enumerate(labels):
        block = function.blocks[label]
        phis = block.phis()
        non_phis = block.non_phi_instructions()
        blocks.append(_CompiledBlock(
            len(phis) + len(non_phis) + 1,
            len(phis) * cost_model.phi
            + sum(cost_model.instruction_cost(ins) for ins in non_phis)
            + (cost_model.terminator_cost(block.terminator)
               if block.terminator is not None else 0),
        ))
        _emit_block(em, i, block, sorted(preds[i]), labels, block_index,
                    addresses)

    shell.labels = tuple(labels)
    shell.sites = tuple(em.sites)
    env = em.build(shell)
    for i, cb in enumerate(blocks):
        cb.fn = env[f"_b{i}"]
    shell.blocks = tuple(blocks)


# -- module-level compile cache ----------------------------------------------

def exec_cache_limit() -> int:
    """Bound (live module entries) shared by every identity-keyed executor
    cache — compile and SoA.  Long-running servers pin modules across jobs,
    so without a bound these grow with distinct submissions."""
    return knob("REPRO_EXEC_CACHE_SIZE")


_CACHE_LOCK = threading.Lock()
#: ``id(module) -> (weakref to module, {options key: CompiledModule})``,
#: in LRU order (recency updated on every hit, least-recent evicted once
#: the entry count passes :func:`exec_cache_limit`).
_COMPILE_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}
#: Tier decisions since the last :func:`clear_compile_cache`.
_TIER_STATS = {"compiled_functions": 0, "interpreted_calls": 0}
#: Held while a function is filled, so each is compiled once.
_FILL_LOCK = threading.Lock()


def get_compiled(
    module: Module,
    record_trace: bool,
    cache_enabled: bool,
    cost_model: CostModel,
) -> CompiledModule:
    """Fetch (or create) the compile-cache entry of ``module``.

    A new entry compiles nothing: each function is compiled when an
    executor finds it hot (:meth:`CompiledExecutor._exec`).  The cache
    keys on **object identity**, not module name: repairing or optimizing
    a module produces a new ``Module`` object and therefore a fresh entry,
    so stale code can never be served for a rebuilt function of the same
    name.  Entries are evicted when the module is garbage collected
    (weakref callback), and an ``id()`` that has been recycled for a new
    module is detected by re-checking the weakref.
    """
    key = (bool(record_trace), bool(cache_enabled), cost_model)
    mid = id(module)
    with _CACHE_LOCK:
        entry = _COMPILE_CACHE.get(mid)
        if entry is not None and entry[0]() is not module:
            # The original module died and its id was recycled.
            del _COMPILE_CACHE[mid]
            entry = None
        if entry is not None:
            compiled = entry[1].get(key)
            if compiled is not None:
                _COMPILE_CACHE.move_to_end(mid)
                _CACHE_STATS["hits"] += 1
                OBS.counter("exec.compile_cache.hits")
                return compiled
    limit = exec_cache_limit()
    compiled = CompiledModule(module)
    OBS.counter("exec.compile_cache.misses")
    with _CACHE_LOCK:
        _CACHE_STATS["misses"] += 1
        entry = _COMPILE_CACHE.get(mid)
        if entry is not None and entry[0]() is module:
            compiled = entry[1].setdefault(key, compiled)
            _COMPILE_CACHE.move_to_end(mid)
        else:
            # The lock and the cache are bound as defaults: at interpreter
            # exit this may run after the module globals are cleared.
            def _evict(_ref, _mid=mid, _lock=_CACHE_LOCK,
                       _cache=_COMPILE_CACHE):
                with _lock:
                    stored = _cache.get(_mid)
                    if stored is not None and stored[0] is _ref:
                        del _cache[_mid]

            ref = weakref.ref(module, _evict)
            _COMPILE_CACHE[mid] = (ref, {key: compiled})
            while len(_COMPILE_CACHE) > limit:
                _COMPILE_CACHE.popitem(last=False)
                _CACHE_STATS["evictions"] += 1
                OBS.counter("exec.compile_cache.evictions")
    return compiled


def clear_compile_cache() -> None:
    """Drop every cached compilation (mainly for tests)."""
    with _CACHE_LOCK:
        _COMPILE_CACHE.clear()
        for stats in (_CACHE_STATS, _TIER_STATS):
            for name in stats:
                stats[name] = 0


def compile_cache_stats() -> dict:
    """Hit/miss/eviction counters and live entry count of the compile cache."""
    with _CACHE_LOCK:
        return {
            "hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"],
            "evictions": _CACHE_STATS["evictions"],
            "entries": len(_COMPILE_CACHE),
        }


def tier_stats() -> dict:
    """Tier decisions: functions compiled and calls interpreted, plus the
    ``auto`` threshold."""
    with _CACHE_LOCK:
        return {"hot_calls": HOT_CALLS, **_TIER_STATS}


# -- execution ---------------------------------------------------------------

#: Calls a function is interpreted for under the ``auto`` backend before it
#: is compiled at the next call.  Measured on the suite at -O1, compiling a
#: module costs as much as interpreting it 15 times (median) or 4.9 times
#: (all compile cost over all per-run saving); 8 sits between the two
#: (docs/BACKENDS.md).
HOT_CALLS = 8


class CompiledExecutor(Interpreter):
    """Drop-in replacement for :class:`~repro.exec.interpreter.Interpreter`.

    Same constructor signature (plus ``hot_calls``), same :meth:`run`
    contract, same observable semantics.  A function is interpreted — by
    the inherited :meth:`Interpreter._call`, on the same run state —
    until the calls that found it cold pass ``hot_calls``; the next call
    compiles it (shared process-wide through the compile cache, which
    also keeps the count) and every later call runs the generated code.
    ``hot_calls=0`` is the ``compiled`` backend (each function compiled at
    its first call), :data:`HOT_CALLS` the ``auto`` backend.  A function
    with a CFG cycle is compiled at its first call either way.
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
        hot_calls: int = 0,
    ) -> None:
        super().__init__(module, strict_memory, record_trace, cost_model,
                         cache, max_steps, max_call_depth)
        self.hot_calls = hot_calls
        self._compiled = get_compiled(
            module, record_trace, cache is not None, cost_model
        )

    # The class's own attribute (not only inherited), so instrumentation
    # can wrap ``CompiledExecutor.run`` apart from ``Interpreter.run``.
    run = Interpreter.run

    def _target(self, name: str):
        return self._compiled.functions.get(name)

    def _tier_up(self, cf: _CompiledFunction):
        """Count a call to cold ``cf``: its blocks once it is hot (compiled
        now if need be), or None to interpret this call."""
        with _CACHE_LOCK:
            cf.calls += 1
            cold = cf.calls <= self.hot_calls and not cf.loops
            if cold:
                _TIER_STATS["interpreted_calls"] += 1
        if cold:
            OBS.counter("exec.tier.interpreted")
            return None
        with _FILL_LOCK:
            if cf.blocks is None:
                with OBS.span("exec.compile", module=self.module.name,
                              function=cf.name):
                    _fill_function(
                        cf, self.module, self._compiled.functions,
                        self.record_trace, self.cache is not None,
                        self.cost_model, self._instr_addresses,
                    )
                with _CACHE_LOCK:
                    _TIER_STATS["compiled_functions"] += 1
                OBS.counter("exec.tier.compiled")
        return cf.blocks

    # -- hot loop ------------------------------------------------------------

    def _exec(self, cf: _CompiledFunction, args, state: _RunState,
              depth: int) -> int:
        blocks = cf.blocks
        if blocks is None:
            blocks = self._tier_up(cf)
            if blocks is None:
                return self._call(cf.function, args, state, depth)
        if depth > self.max_call_depth:
            raise InterpreterError(
                f"call depth exceeded at @{cf.name} (recursive program?)"
            )
        regs = [_UNDEF] * cf.nslots
        if cf.global_slots:
            global_pointers = state.global_pointers
            for slot, gname in cf.global_slots:
                regs[slot] = global_pointers[gname]
        for slot, value in zip(cf.param_slots, args):
            regs[slot] = value

        max_steps = self.max_steps
        bi = 0
        prev = -1
        while True:
            block = blocks[bi]
            steps = state.steps + block.steps
            state.steps = steps
            if steps > max_steps:
                raise StepLimitExceeded(
                    f"exceeded {max_steps} steps; the program probably loops"
                )
            state.cycles += block.cycles
            nxt = block.fn(regs, state, depth, prev)
            if nxt is None:
                return state.ret
            prev = bi
            bi = nxt
