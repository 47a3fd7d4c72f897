"""The mutation engine: splice/tweak/grow on MiniC specs and IR modules.

Mutations are the coverage-guided campaign's way off the blind generator's
distribution: instead of sampling a fresh program shape every iteration,
a coverage-novel *parent* from the corpus is perturbed —

* **tweak** — point changes that keep the shape: a constant becomes
  another interesting constant, a binary operator flips, a loop bound
  stretches, a ternary swaps its arms;
* **splice** — a top-level statement subtree from a *donor* corpus entry
  is transplanted into the parent's entry function;
* **grow** — fresh statements from the seeded generator's own statement
  machinery (:class:`repro.fuzz.generators._FuncGen`) are grafted before
  the final return, so mutated programs can exceed every ``FuzzConfig``
  size cap the blind generator respects.

Every mutator is a pure function of ``(parent, seed)`` — mutated samples
re-materialize identically in any process, which is what lets campaign
checkpoints store derivation *recipes* instead of program text.  Validity
is by construction-then-check: a candidate that fails to compile (spec) or
validate (IR) is retried with the next perturbation, and after
:data:`MUTATE_RETRIES` failed attempts the mutator falls back to a fresh
seeded sample so campaigns never stall.
"""

from __future__ import annotations

import dataclasses
import random
import re
from typing import Optional

from repro.fuzz.generators import (
    _INTERESTING,
    FuzzConfig,
    _FuncGen,
    _Scope,
    generate_program,
    random_ir_module,
)
from repro.fuzz.spec import (
    ArrayDeclS,
    AssignS,
    BinE,
    CallE,
    CastE,
    ConstE,
    DeclS,
    ExprStmtS,
    ForS,
    FuncSpec,
    IfS,
    LoadE,
    ProgramSpec,
    ReturnS,
    StoreS,
    TernE,
    UnE,
    render_program,
)
from repro.obs import OBS

#: Bounded validity retries per mutation before the fresh-sample fallback.
MUTATE_RETRIES = 8

_BINOP_SWAPS = (
    "+", "-", "*", "&", "|", "^", "<<", ">>",
    "==", "!=", "<", "<=", ">", ">=", "/", "%",
)


# -- MiniC spec mutation -----------------------------------------------------


def _map_expr(expr, visit):
    """Rebuild ``expr`` bottom-up, passing every node through ``visit``."""
    kind = type(expr)
    if kind is LoadE:
        expr = dataclasses.replace(expr, index=_map_expr(expr.index, visit))
    elif kind is UnE:
        expr = dataclasses.replace(expr, operand=_map_expr(expr.operand, visit))
    elif kind is BinE:
        expr = dataclasses.replace(
            expr,
            lhs=_map_expr(expr.lhs, visit),
            rhs=_map_expr(expr.rhs, visit),
        )
    elif kind is TernE:
        expr = dataclasses.replace(
            expr,
            cond=_map_expr(expr.cond, visit),
            if_true=_map_expr(expr.if_true, visit),
            if_false=_map_expr(expr.if_false, visit),
        )
    elif kind is CastE:
        expr = dataclasses.replace(expr, operand=_map_expr(expr.operand, visit))
    elif kind is CallE:
        expr = dataclasses.replace(
            expr,
            args=tuple(
                arg if isinstance(arg, str) else _map_expr(arg, visit)
                for arg in expr.args
            ),
        )
    return visit(expr)


def _map_stmt(stmt, visit_expr, visit_stmt):
    kind = type(stmt)
    if kind is DeclS:
        stmt = dataclasses.replace(stmt, init=_map_expr(stmt.init, visit_expr))
    elif kind is AssignS:
        stmt = dataclasses.replace(stmt, value=_map_expr(stmt.value, visit_expr))
    elif kind is StoreS:
        stmt = dataclasses.replace(
            stmt,
            index=_map_expr(stmt.index, visit_expr),
            value=_map_expr(stmt.value, visit_expr),
        )
    elif kind is IfS:
        stmt = dataclasses.replace(
            stmt,
            cond=_map_expr(stmt.cond, visit_expr),
            then_body=tuple(
                _map_stmt(s, visit_expr, visit_stmt) for s in stmt.then_body
            ),
            else_body=tuple(
                _map_stmt(s, visit_expr, visit_stmt) for s in stmt.else_body
            ),
        )
    elif kind is ForS:
        stmt = dataclasses.replace(
            stmt,
            body=tuple(
                _map_stmt(s, visit_expr, visit_stmt) for s in stmt.body
            ),
        )
    elif kind is ReturnS:
        stmt = dataclasses.replace(stmt, value=_map_expr(stmt.value, visit_expr))
    elif kind is ExprStmtS:
        stmt = dataclasses.replace(stmt, expr=_map_expr(stmt.expr, visit_expr))
    return visit_stmt(stmt)


def _map_program(spec: ProgramSpec, visit_expr, visit_stmt) -> ProgramSpec:
    functions = tuple(
        dataclasses.replace(
            func,
            body=tuple(
                _map_stmt(s, visit_expr, visit_stmt) for s in func.body
            ),
        )
        for func in spec.functions
    )
    return dataclasses.replace(spec, functions=functions)


class _SlotPicker:
    """Deterministic k-th-tweakable-node selection over one traversal."""

    __slots__ = ("target", "count", "fired")

    def __init__(self, target: int) -> None:
        self.target = target
        self.count = 0
        self.fired = False

    def take(self) -> bool:
        hit = self.count == self.target
        self.count += 1
        if hit:
            self.fired = True
        return hit


def _tweakable(node) -> bool:
    kind = type(node)
    return kind in (ConstE, BinE, UnE, TernE, ForS)


def _count_slots(spec: ProgramSpec) -> int:
    slots = [0]

    def visit_expr(expr):
        if _tweakable(expr):
            slots[0] += 1
        return expr

    def visit_stmt(stmt):
        if _tweakable(stmt):
            slots[0] += 1
        return stmt

    _map_program(spec, visit_expr, visit_stmt)
    return slots[0]


def _tweak(spec: ProgramSpec, rng: random.Random) -> Optional[ProgramSpec]:
    """Point-mutate one constant/operator/bound/ternary in the tree."""
    total = _count_slots(spec)
    if total == 0:
        return None
    picker = _SlotPicker(rng.randrange(total))

    def perturb(node):
        kind = type(node)
        if kind is ConstE:
            choice = rng.random()
            if choice < 0.6:
                return ConstE(rng.choice(_INTERESTING))
            if choice < 0.8:
                return ConstE(node.value + 1)
            return ConstE(node.value ^ 1)
        if kind is BinE:
            return dataclasses.replace(node, op=rng.choice(_BINOP_SWAPS))
        if kind is UnE:
            return dataclasses.replace(node, op=rng.choice(("-", "!", "~")))
        if kind is TernE:
            return dataclasses.replace(
                node, if_true=node.if_false, if_false=node.if_true
            )
        if kind is ForS:
            return dataclasses.replace(node, bound=rng.randint(1, node.bound + 2))
        return node

    def visit_expr(expr):
        if _tweakable(expr) and picker.take():
            return perturb(expr)
        return expr

    def visit_stmt(stmt):
        if _tweakable(stmt) and picker.take():
            return perturb(stmt)
        return stmt

    return _map_program(spec, visit_expr, visit_stmt)


def _splice(
    spec: ProgramSpec, rng: random.Random, donor: ProgramSpec
) -> Optional[ProgramSpec]:
    """Transplant a top-level donor statement into the entry body."""
    donor_stmts = [
        s for s in donor.entry_func.body if not isinstance(s, ReturnS)
    ]
    if not donor_stmts:
        return None
    graft = rng.choice(donor_stmts)
    entry = spec.entry_func
    body = list(entry.body)
    # Keep the trailing return last; insert anywhere before it.
    limit = len(body) - 1 if body and isinstance(body[-1], ReturnS) else len(body)
    body.insert(rng.randint(0, max(limit, 0)), graft)
    functions = spec.functions[:-1] + (
        dataclasses.replace(entry, body=tuple(body)),
    )
    return dataclasses.replace(spec, functions=functions)


def _entry_scope(spec: ProgramSpec) -> _Scope:
    """The names visible at the end of the entry body (top level only)."""
    entry = spec.entry_func
    scalars = [(p.name, p.type_name) for p in entry.params if not p.pointer]
    arrays = [
        (p.name, p.type_name, p.size, True)
        for p in entry.params
        if p.pointer
    ]
    arrays += [
        (g.name, g.elem_type, g.size, not g.const) for g in spec.globals
    ]
    for stmt in entry.body:
        if isinstance(stmt, DeclS):
            scalars.append((stmt.name, stmt.type_name))
        elif isinstance(stmt, ArrayDeclS):
            arrays.append((stmt.name, stmt.elem_type, stmt.size, True))
    return _Scope(scalars=scalars, counters=[], arrays=arrays)


def _used_prefix_max(spec: ProgramSpec, prefix: str) -> int:
    pattern = re.compile(rf"\b{prefix}(\d+)\b")
    highest = -1
    for match in pattern.finditer(render_program(spec)):
        highest = max(highest, int(match.group(1)))
    return highest


def _grow(
    spec: ProgramSpec, rng: random.Random, config: FuzzConfig
) -> Optional[ProgramSpec]:
    """Graft fresh generated statements before the entry's final return."""
    gen = _FuncGen(
        rng, config, list(spec.functions[:-1]) if config.allow_calls else []
    )
    for prefix in ("v", "a", "i"):
        gen._next[prefix] = _used_prefix_max(spec, prefix) + 1
    scope = _entry_scope(spec)
    grafts = [
        gen.stmt(scope, config.max_block_depth, False)
        for _ in range(rng.randint(1, 3))
    ]
    entry = spec.entry_func
    body = list(entry.body)
    limit = len(body) - 1 if body and isinstance(body[-1], ReturnS) else len(body)
    for graft in grafts:
        body.insert(limit, graft)
        limit += 1
    functions = spec.functions[:-1] + (
        dataclasses.replace(entry, body=tuple(body)),
    )
    return dataclasses.replace(spec, functions=functions)


def _sanitize_spec(spec: ProgramSpec) -> Optional[ProgramSpec]:
    """Restore the generator's memory-safety invariants after a mutation.

    Splice can transplant an access whose mask was sized for the *donor's*
    array into a recipient whose same-named array is smaller, and a call
    whose array argument is smaller than the recipient callee's declared
    parameter size — both out-of-bounds at runtime, which the oracles
    would misreport as repair disagreements.  Masking an in-bounds index
    with ``size - 1`` is the identity (sizes are powers of two), so every
    access mask is reset to the smallest declared size for its name;
    candidates with unresolvable names or undersized call arguments are
    rejected (``None``).
    """
    callees = {func.name: func for func in spec.functions}
    ok = [True]
    functions = []
    for func in spec.functions:
        sizes: dict = {}

        def record(name: str, size: int) -> None:
            sizes[name] = min(size, sizes.get(name, size))

        for glob in spec.globals:
            record(glob.name, glob.size)
        for param in func.params:
            if param.pointer:
                record(param.name, param.size)

        def collect_stmt(stmt):
            if type(stmt) is ArrayDeclS:
                record(stmt.name, stmt.size)
            return stmt

        for stmt in func.body:
            _map_stmt(stmt, lambda e: e, collect_stmt)

        def fix_expr(expr):
            kind = type(expr)
            if kind is LoadE:
                size = sizes.get(expr.array, 0)
                if size < 2:
                    ok[0] = False
                    return expr
                return dataclasses.replace(expr, mask=size - 1)
            if kind is CallE:
                callee = callees.get(expr.callee)
                if callee is None:
                    ok[0] = False
                    return expr
                pointer_params = [p for p in callee.params if p.pointer]
                names = [a for a in expr.args if isinstance(a, str)]
                if len(names) != len(pointer_params):
                    ok[0] = False
                    return expr
                for param, name in zip(pointer_params, names):
                    if sizes.get(name, 0) < param.size:
                        ok[0] = False
            return expr

        def fix_stmt(stmt):
            if type(stmt) is StoreS:
                size = sizes.get(stmt.array, 0)
                if size < 2:
                    ok[0] = False
                    return stmt
                return dataclasses.replace(stmt, mask=size - 1)
            return stmt

        body = tuple(_map_stmt(s, fix_expr, fix_stmt) for s in func.body)
        functions.append(dataclasses.replace(func, body=body))
    if not ok[0]:
        return None
    return dataclasses.replace(spec, functions=tuple(functions))


def mutate_spec(
    parent: ProgramSpec,
    seed: int,
    config: Optional[FuzzConfig] = None,
    donor: Optional[ProgramSpec] = None,
) -> ProgramSpec:
    """One valid MiniC mutation of ``parent`` — pure in ``(parent, seed)``.

    Candidates that fail to compile are retried with fresh perturbations;
    after :data:`MUTATE_RETRIES` failures the result is a fresh seeded
    program, so the campaign's sample count never stalls on a hard-to-
    mutate parent.
    """
    from repro.fuzz.oracles import SampleInvalid, compile_sample

    config = config or FuzzConfig()
    rng = random.Random(seed ^ 0xA11CE)
    for _ in range(MUTATE_RETRIES):
        roll = rng.random()
        if donor is not None and roll < 0.30:
            candidate = _splice(parent, rng, donor)
        elif roll < 0.65:
            candidate = _tweak(parent, rng)
        else:
            candidate = _grow(parent, rng, config)
        if candidate is not None:
            candidate = _sanitize_spec(candidate)
        if candidate is None or candidate == parent:
            continue
        try:
            compile_sample(render_program(candidate), name="mutant")
        except SampleInvalid:
            if OBS.enabled:
                OBS.counter("fuzz.mutate.invalid")
            continue
        return candidate
    if OBS.enabled:
        OBS.counter("fuzz.mutate.fallbacks")
    return generate_program(seed ^ 0xF4E5, config)


# -- IR module mutation ------------------------------------------------------

_IR_INT = re.compile(r"(?<![\w.])-?\d+(?![\w.])")


def _ir_tweak_const(text: str, rng: random.Random) -> Optional[str]:
    """Replace one standalone integer literal in the printed module."""
    matches = list(_IR_INT.finditer(text))
    if not matches:
        return None
    match = rng.choice(matches)
    # Replacements stay inside [0, IR_ARRAY_CELLS): a literal can be a
    # load/store index, and an out-of-bounds *original* would make the
    # strict-memory semantic oracle report a false disagreement.
    from repro.fuzz.generators import IR_ARRAY_CELLS

    value = rng.randrange(0, IR_ARRAY_CELLS)
    return text[: match.start()] + str(value) + text[match.end():]


def _ir_swap_br(module, rng: random.Random) -> bool:
    from repro.ir.instructions import Br

    branches = [
        (block, block.terminator)
        for function in module.functions.values()
        for block in function.blocks.values()
        if isinstance(block.terminator, Br)
    ]
    if not branches:
        return False
    block, term = rng.choice(branches)
    block.terminator = dataclasses.replace(
        term, if_true=term.if_false, if_false=term.if_true
    )
    return True


def _ir_swap_binop(module, rng: random.Random) -> bool:
    from repro.ir.instructions import BinExpr, Mov

    slots = [
        (block, index)
        for function in module.functions.values()
        for block in function.blocks.values()
        for index, instr in enumerate(block.instructions)
        if isinstance(instr, Mov) and isinstance(instr.expr, BinExpr)
    ]
    if not slots:
        return False
    block, index = rng.choice(slots)
    instr = block.instructions[index]
    expr = dataclasses.replace(instr.expr, op=rng.choice(_BINOP_SWAPS))
    block.instructions[index] = dataclasses.replace(instr, expr=expr)
    return True


def mutate_ir(parent, seed: int):
    """One valid IR mutation of ``parent`` — pure in ``(module text, seed)``.

    Works on a parse round-trip copy, so the parent is never touched.
    Candidates with validator errors are retried; the fallback is a fresh
    seeded IR module.
    """
    from repro.ir import module_to_str, parse_module
    from repro.ir.validate import diagnose_module

    text = module_to_str(parent)
    rng = random.Random(seed ^ 0x1C0DE)
    for _ in range(MUTATE_RETRIES):
        candidate = None
        roll = rng.random()
        if roll < 0.45:
            mutated_text = _ir_tweak_const(text, rng)
            if mutated_text is None:
                continue
            try:
                candidate = parse_module(mutated_text)
            except Exception:
                continue
        else:
            candidate = parse_module(text)
            applied = (
                _ir_swap_br(candidate, rng)
                if roll < 0.75
                else _ir_swap_binop(candidate, rng)
            )
            if not applied:
                continue
        try:
            errors = [
                d for d in diagnose_module(candidate) if d.severity == "error"
            ]
        except Exception:
            continue
        if errors or module_to_str(candidate) == text:
            if OBS.enabled:
                OBS.counter("fuzz.mutate.invalid")
            continue
        return candidate
    if OBS.enabled:
        OBS.counter("fuzz.mutate.fallbacks")
    return random_ir_module(seed ^ 0x51F7)
