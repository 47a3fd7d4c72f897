"""The optimisation pipeline (the paper's ``opt -O1`` stand-in).

The paper reports results for -O1 and notes its findings hold for -O2, -O3
and -Oz; this pipeline is a single cleanup level run to fixpoint, which is
what those levels have in common for the straight-line integer code the
repair produces.

Per-pass telemetry — wall time, instructions eliminated, fixpoint
iteration counts — is recorded into an :class:`OptReport` when one is
passed (the artifact builder persists it per benchmark) and mirrored to
``repro.obs`` counters/timers when tracing is enabled
(``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.obs import OBS
from repro.opt.sanitize import LeakFingerprint, check_pass, sanitize_enabled
from repro.opt.constfold import constant_fold
from repro.opt.copyprop import propagate_copies
from repro.opt.cse import cse_scope, eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.simplify import simplify_algebraic
from repro.opt.simplifycfg import simplify_cfg

#: Name and implementation of each pass, in pipeline order.
PASSES: tuple[tuple[str, object], ...] = (
    ("simplifycfg", simplify_cfg),
    ("constfold", constant_fold),
    ("simplify", simplify_algebraic),
    ("copyprop", propagate_copies),
    ("cse", eliminate_common_subexpressions),
    ("dce", eliminate_dead_code),
)

_MAX_ITERATIONS = 6


@dataclass
class OptReport:
    """Per-function and per-pass telemetry of one or more ``optimize`` calls.

    ``iterations``/``fired`` record, per function, how many passes fired
    and which (the pre-observability fields).  The ``pass_*`` maps
    aggregate across every function and call that shared this report:
    wall-clock seconds, number of times the pass reported a change, and
    net instructions eliminated (negative means the pass grew the code).
    ``fixpoint_iterations`` counts pipeline round-trips, ``functions`` the
    functions optimised.
    """

    iterations: dict[str, int] = field(default_factory=dict)
    fired: dict[str, list[str]] = field(default_factory=dict)
    pass_seconds: dict[str, float] = field(default_factory=dict)
    pass_fired: dict[str, int] = field(default_factory=dict)
    pass_eliminated: dict[str, int] = field(default_factory=dict)
    fixpoint_iterations: int = 0
    functions: int = 0

    def as_dict(self) -> dict:
        """The aggregate pass statistics, JSON-ready (for the artifact store)."""
        return {
            "pass_seconds": dict(self.pass_seconds),
            "pass_fired": dict(self.pass_fired),
            "pass_eliminated": dict(self.pass_eliminated),
            "fixpoint_iterations": self.fixpoint_iterations,
            "functions": self.functions,
        }


def optimize_function(
    function: Function,
    report: "OptReport | None" = None,
    sanitize: "bool | None" = None,
    passes: "tuple[tuple[str, object], ...] | None" = None,
    module: "Module | None" = None,
) -> list[str]:
    """Run the pipeline on one function to fixpoint; returns passes that fired.

    ``sanitize`` enables the per-pass leakage sanitizer
    (:mod:`repro.opt.sanitize`); ``None`` defers to the
    ``REPRO_OPT_SANITIZE`` env var.  ``passes`` overrides the pipeline —
    the sanitizer's tests inject a deliberately leak-introducing pass.
    ``module`` is handed to the sanitizer's validator so globals and
    callees resolve.
    """
    if passes is None:
        passes = PASSES
    if sanitize is None:
        sanitize = sanitize_enabled()
    fingerprint = LeakFingerprint.of(function) if sanitize else None
    fired: list[str] = []
    collecting = report is not None or OBS.enabled
    iterations = 0
    # Of the pipeline passes only simplifycfg rewires CFG edges, so the
    # dominator tree CSE walks stays valid across iterations until it fires.
    scope = None
    for _ in range(_MAX_ITERATIONS):
        changed = False
        iterations += 1
        for name, pass_fn in passes:
            if collecting:
                size_before = function.instruction_count()
                started = time.perf_counter()
            if name == "cse":
                if scope is None:
                    scope = cse_scope(function)
                did_change = eliminate_common_subexpressions(function, scope)
            else:
                did_change = pass_fn(function)
                if did_change and name == "simplifycfg":
                    scope = None
            if collecting:
                elapsed = time.perf_counter() - started
                eliminated = size_before - function.instruction_count()
                if report is not None:
                    report.pass_seconds[name] = (
                        report.pass_seconds.get(name, 0.0) + elapsed
                    )
                    if did_change:
                        report.pass_fired[name] = report.pass_fired.get(name, 0) + 1
                    report.pass_eliminated[name] = (
                        report.pass_eliminated.get(name, 0) + eliminated
                    )
                if OBS.enabled:
                    OBS.counter(f"opt.pass.{name}.seconds", elapsed)
                    OBS.counter(f"opt.pass.{name}.eliminated", eliminated)
                    if did_change:
                        OBS.counter(f"opt.pass.{name}.fired")
            if sanitize and did_change:
                # A pass that reported no change cannot have introduced a
                # leak, so only rewrites pay for the re-analysis.
                fingerprint = check_pass(function, name, fingerprint, module)
            if did_change:
                fired.append(name)
                changed = True
        if not changed:
            break
    if report is not None:
        report.fixpoint_iterations += iterations
        report.functions += 1
    if OBS.enabled:
        OBS.counter("opt.fixpoint_iterations", iterations)
        OBS.counter("opt.functions")
    return fired


def optimize(
    module: Module,
    level: int = 1,
    report: "OptReport | None" = None,
    validate: bool = True,
    sanitize: "bool | None" = None,
) -> Module:
    """Optimise a copy of the module; ``level=0`` is the identity.

    ``validate`` gates the full-module validation of the result.  The
    bench harness passes ``False`` so hot-loop rebuilds skip it; tests
    keep the default.  ``sanitize`` gates the per-pass leakage sanitizer
    (default: the ``REPRO_OPT_SANITIZE`` env var, off unless set).
    """
    result = module.clone()
    if level <= 0:
        return result
    if sanitize is None:
        sanitize = sanitize_enabled()
    with OBS.span("opt.optimize", module=module.name):
        for function in result.functions.values():
            fired = optimize_function(
                function, report, sanitize=sanitize, module=result
            )
            if report is not None:
                report.fired[function.name] = fired
                report.iterations[function.name] = len(fired)
    if validate:
        validate_module(result)
    return result
