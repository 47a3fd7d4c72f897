"""Building every variant of one benchmark, with per-stage timings.

The result is a plain serialisable record: modules travel as printed IR
text (the printer/parser round-trip is lossless, which the property suite
asserts), stats as dicts.  That makes one build both cacheable on disk and
cheap to ship across process boundaries in the parallel fan-out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.artifacts.keys import cache_key
from repro.obs import OBS

#: Variant names in canonical order.  ``sce``/``sce_o1`` are absent from a
#: build when the baseline rejects the program (its inline budget).
VARIANTS = ("original", "original_o1", "repaired", "repaired_o1", "sce", "sce_o1")


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class BuildRequest:
    """Everything needed to build (and content-address) one benchmark."""

    name: str
    source: str
    entry: str
    #: Inputs for the baseline output-equivalence check, as nested tuples so
    #: the request stays hashable and picklable.
    check_inputs: tuple = ()
    sce_inline_budget: int = 20_000

    def options_fingerprint(self) -> dict:
        return {
            "entry": self.entry,
            "check_inputs": _jsonable(self.check_inputs),
            "sce_inline_budget": self.sce_inline_budget,
        }

    def key(self) -> str:
        return cache_key(self.source, self.options_fingerprint())


@dataclass
class BuiltArtifacts:
    """Serialisable result of building one benchmark's variants."""

    name: str
    key: str
    entry: str
    #: variant -> printed IR text (the canonical representation).
    ir: dict = field(default_factory=dict)
    #: variant -> module name (the printer does not embed it).
    module_names: dict = field(default_factory=dict)
    repair_stats: dict = field(default_factory=dict)
    sce_stats: Optional[dict] = None
    sce_error: Optional[str] = None
    sce_correct: Optional[bool] = None
    #: stage -> wall-clock seconds (parse, unroll, codegen, repair, sce,
    #: opt, check, print).
    timings: dict = field(default_factory=dict)
    instruction_counts: dict = field(default_factory=dict)
    #: Aggregated optimiser telemetry across this build's ``optimize`` calls
    #: (:meth:`repro.opt.pipeline.OptReport.as_dict`): per-pass seconds,
    #: fire counts, instructions eliminated, fixpoint iterations.
    opt_pass_stats: dict = field(default_factory=dict)
    #: variant -> :meth:`repro.statics.certifier.CertificationReport.as_dict`
    #: for the benchmark entry point (original and repaired variants).
    certification: dict = field(default_factory=dict)
    #: variant -> :meth:`repro.statics.certifier.CertificationMatrix.as_dict`
    #: — the per-channel (time/cache/power) static verdicts for all four
    #: compiled variants, so warm loads re-certify nothing.
    certification_matrix: dict = field(default_factory=dict)
    #: True when this record came from the on-disk store, not a build.
    cache_hit: bool = False


def parse_variant(built: BuiltArtifacts, variant: str):
    """Materialise one variant's module from its printed IR."""
    from repro.ir.parser import parse_module

    return parse_module(built.ir[variant], name=built.module_names[variant])


def _mutable(arg):
    return list(arg) if isinstance(arg, (list, tuple)) else arg


def outputs_match(
    original,
    transformed,
    entry: str,
    inputs: Sequence[Sequence[object]],
    backend: Optional[str] = None,
) -> bool:
    """Same-signature output comparison (the artifact's pass/fail check),
    on the default backend: under ``auto`` the handful of runs here are
    interpreted, so the check pays no compilation."""
    from repro.exec import make_executor

    executor_a = make_executor(original, backend=backend, record_trace=False)
    executor_b = make_executor(
        transformed, backend=backend, record_trace=False, strict_memory=False
    )
    for args in inputs:
        result_a = executor_a.run(entry, [_mutable(a) for a in args])
        result_b = executor_b.run(entry, [_mutable(a) for a in args])
        if result_a.value != result_b.value or result_a.arrays != result_b.arrays:
            return False
    return True


def _stats_dict(stats) -> dict:
    from dataclasses import asdict

    return asdict(stats)


def build_artifacts(request: BuildRequest, store=None) -> BuiltArtifacts:
    """Build one benchmark's variants, or load them from ``store``."""
    key = request.key()
    if store is not None:
        cached = store.load(key)
        if cached is not None:
            return cached
    built = _build(request, key)
    OBS.counter("artifacts.builds")
    if store is not None:
        store.save(built)
    return built


def _build(request: BuildRequest, key: str) -> BuiltArtifacts:
    # The transforms allocate heavily and drop almost everything; letting
    # the cyclic collector run mid-build costs more than the one sweep at
    # the end of the batch.
    import gc

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_impl(request, key)
    finally:
        if gc_was_enabled:
            gc.enable()


def _build_impl(request: BuildRequest, key: str) -> BuiltArtifacts:
    from repro.baseline import (
        SCEliminatorOptions,
        SCEliminatorStats,
        UnsupportedProgramError,
        sc_eliminate,
    )
    from repro.core.repair import RepairOptions, RepairStats, repair_module
    from repro.frontend.codegen import generate_module
    from repro.frontend.parser import parse_source
    from repro.frontend.unroll import unroll_program
    from repro.ir.printer import module_to_str
    from repro.ir.validate import validate_module
    from repro.opt.pipeline import OptReport, optimize

    timings: dict = {}

    def timed(stage, thunk):
        started = time.perf_counter()
        with OBS.span(f"build.{stage}", benchmark=request.name):
            result = thunk()
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - started
        return result

    program = timed("parse", lambda: parse_source(request.source))
    program = timed("unroll", lambda: unroll_program(program))
    original = timed("codegen", lambda: generate_module(program, request.name))
    timed("validate", lambda: validate_module(original))

    # Output validation in repair/sce/opt is a debug aid, not part of the
    # transformations; the harness skips it (the verifiers check the real
    # covenant properties end to end).
    repair_stats = RepairStats()
    repaired = timed(
        "repair",
        lambda: repair_module(
            original, RepairOptions(validate_output=False), stats=repair_stats
        ),
    )

    sce = None
    sce_stats = SCEliminatorStats()
    sce_error: Optional[str] = None
    sce_correct: Optional[bool] = None
    try:
        sce = timed(
            "sce",
            lambda: sc_eliminate(
                original,
                SCEliminatorOptions(
                    inline_budget=request.sce_inline_budget, validate_output=False
                ),
                stats=sce_stats,
            ),
        )
    except UnsupportedProgramError as error:
        sce = None
        sce_error = str(error)

    opt_report = OptReport()
    original_o1 = timed(
        "opt", lambda: optimize(original, report=opt_report, validate=False)
    )
    repaired_o1 = timed(
        "opt", lambda: optimize(repaired, report=opt_report, validate=False)
    )
    modules = {
        "original": original,
        "original_o1": original_o1,
        "repaired": repaired,
        "repaired_o1": repaired_o1,
    }
    if sce is not None:
        modules["sce"] = sce
        modules["sce_o1"] = timed(
            "opt", lambda: optimize(sce, report=opt_report, validate=False)
        )
        sce_correct = timed(
            "check",
            lambda: outputs_match(original, sce, request.entry, request.check_inputs),
        )

    from repro.statics.certifier import certify_matrix

    # Pointer-parameter sizes from the first check input give the cache
    # analysis concrete region bases (same layout the executor uses).
    arg_sizes = {
        param.name: len(arg)
        for param, arg in zip(
            original.functions[request.entry].params,
            request.check_inputs[0] if request.check_inputs else (),
        )
        if param.is_pointer and isinstance(arg, (list, tuple))
    }

    def _certify_all() -> dict:
        return {
            variant: certify_matrix(
                modules[variant], entry=request.entry, arg_sizes=arg_sizes
            )
            for variant in ("original", "original_o1", "repaired", "repaired_o1")
        }

    matrices = timed("certify", _certify_all)
    certification_matrix = {
        variant: matrix.as_dict() for variant, matrix in matrices.items()
    }
    # The legacy time-channel view is a projection of the matrix — no
    # second taint analysis.
    certification = {
        variant: matrices[variant].time.as_dict()
        for variant in ("original", "repaired")
    }

    ir = timed(
        "print", lambda: {variant: module_to_str(m) for variant, m in modules.items()}
    )

    return BuiltArtifacts(
        name=request.name,
        key=key,
        entry=request.entry,
        ir=ir,
        module_names={variant: m.name for variant, m in modules.items()},
        repair_stats=_stats_dict(repair_stats),
        sce_stats=_stats_dict(sce_stats) if sce is not None else None,
        sce_error=sce_error,
        sce_correct=sce_correct,
        timings=timings,
        instruction_counts={
            variant: m.instruction_count() for variant, m in modules.items()
        },
        opt_pass_stats=opt_report.as_dict(),
        certification=certification,
        certification_matrix=certification_matrix,
        cache_hit=False,
    )
