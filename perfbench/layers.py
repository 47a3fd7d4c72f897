"""Which ``repro`` functions are traced, and the per-layer metrics.

Every probe wraps a public function of one layer (a ``repro`` module).
The metric names are the per-layer names in ``BENCHMARK.json``; a layer
idle on a workload reports 0.
"""

from __future__ import annotations

import os
import weakref
from typing import Optional

from perfbench.spans import Probe, Tracer, layer_rollup

#: Layers rolled up into ``<layer>.busy_s``, ``.self_s`` and ``.calls``.
ROLLUP_LAYERS = (
    "frontend",
    "ir.validate",
    "transforms.preprocess",
    "core.repair",
    "baseline.sce",
    "opt",
    "statics.certify",
    "exec.check",
    "ir.print",
    "ir.parse",
    "artifacts.save",
    "artifacts.load",
    "exec",
    "verify",
    "fuzz.generate",
    "fuzz.oracles",
)

#: Metrics that are not a plain roll-up.
EXTRA_METRICS = (
    ("opt.instructions_removed", "count"),
    ("artifacts.bytes", "B"),
    ("exec.first_run_s", "s"),
    ("exec.steady_run_s", "s"),
    ("exec.runs", "count"),
    ("exec.compile_cache.hit_ratio", "ratio"),
    ("fuzz.oracle_checks", "count"),
    ("fuzz.valid_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.journal.fsyncs", "count"),
    ("serve.pool_busy_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def per_layer_units() -> dict:
    """``metric name -> unit`` for every per-layer metric, in order."""
    units: dict = {}
    for layer in ROLLUP_LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


def _dir_bytes(path) -> int:
    try:
        return sum(entry.stat().st_size for entry in os.scandir(path)
                   if entry.is_file())
    except OSError:
        return 0


class Probes:
    """The probe table plus the state some probes keep between calls."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._seen_executors: "weakref.WeakSet" = weakref.WeakSet()

    # -- hooks -------------------------------------------------------------

    def _opt_before(self, args, kwargs):
        return args[0].instruction_count()

    def _opt_after(self, before, args, result, span):
        removed = before - result.instruction_count()
        span.attrs["removed"] = removed
        self.tracer.count("opt.instructions_removed", removed)

    def _save_after(self, state, args, result, span):
        store, built = args[0], args[1]
        self.tracer.count("artifacts.bytes", _dir_bytes(store._entry_dir(built.key)))

    def _load_after(self, state, args, result, span):
        if result is not None:
            store, key = args[0], args[1]
            self.tracer.count("artifacts.bytes", _dir_bytes(store._entry_dir(key)))

    def _run_before(self, args, kwargs):
        executor = args[0]
        first = executor not in self._seen_executors
        if first:
            self._seen_executors.add(executor)
        return first

    def _run_after(self, first, args, result, span):
        span.attrs["first"] = first

    def _oracles_after(self, state, args, result, span):
        self.tracer.count("fuzz.oracle_checks", len(result.results))

    # -- table -------------------------------------------------------------

    def table(self) -> list:
        run_hooks = {"before": self._run_before, "after": self._run_after}
        return [
            Probe("repro.frontend.parser:parse_source", "parse_source", "frontend"),
            Probe("repro.frontend.unroll:unroll_program", "unroll_program", "frontend"),
            Probe("repro.frontend.codegen:generate_module", "generate_module", "frontend"),
            Probe("repro.frontend:compile_source", "compile_source", "frontend"),
            Probe("repro.ir.validate:validate_module", "validate_module", "ir.validate"),
            Probe("repro.ir.validate:validate_function", "validate_function", "ir.validate"),
            Probe("repro.transforms.preprocess:preprocess_module", "preprocess_module",
                  "transforms.preprocess"),
            Probe("repro.core.repair:repair_module", "repair_module", "core.repair"),
            Probe("repro.baseline.sc_eliminator:sc_eliminate", "sc_eliminate",
                  "baseline.sce"),
            Probe("repro.opt.pipeline:optimize", "optimize", "opt",
                  before=self._opt_before, after=self._opt_after),
            Probe("repro.statics.certifier:certify_matrix", "certify_matrix",
                  "statics.certify"),
            Probe("repro.statics.certifier:certify_entry", "certify_entry",
                  "statics.certify"),
            Probe("repro.statics.certifier:certify_module", "certify_module",
                  "statics.certify"),
            Probe("repro.artifacts.build:outputs_match", "outputs_match", "exec.check"),
            Probe("repro.ir.printer:module_to_str", "module_to_str", "ir.print"),
            Probe("repro.ir.parser:parse_module", "parse_module", "ir.parse"),
            Probe("repro.artifacts.store:ArtifactStore.save", "ArtifactStore.save",
                  "artifacts.save", after=self._save_after),
            Probe("repro.artifacts.store:ArtifactStore.load", "ArtifactStore.load",
                  "artifacts.load", after=self._load_after),
            Probe("repro.exec.backend:make_executor", "make_executor", "exec"),
            Probe("repro.exec.interpreter:Interpreter.run", "Interpreter.run", "exec",
                  **run_hooks),
            Probe("repro.exec.compiled:CompiledExecutor.run", "CompiledExecutor.run",
                  "exec", **run_hooks),
            Probe("repro.exec.batch:BatchExecutor.run", "BatchExecutor.run", "exec",
                  **run_hooks),
            Probe("repro.exec.batch:BatchExecutor.run_batch", "BatchExecutor.run_batch",
                  "exec", **run_hooks),
            Probe("repro.verify.covenant:check_covenant", "check_covenant", "verify"),
            Probe("repro.fuzz.generators:generate_program", "generate_program",
                  "fuzz.generate"),
            Probe("repro.fuzz.generators:random_ir_module", "random_ir_module",
                  "fuzz.generate"),
            Probe("repro.fuzz.spec:render_program", "render_program", "fuzz.generate"),
            Probe("repro.fuzz.oracles:run_oracles", "run_oracles", "fuzz.oracles",
                  after=self._oracles_after),
        ]


def span_names(probes: list) -> list:
    return sorted({probe.name for probe in probes})


def exec_split(tracer: Tracer) -> dict:
    """First-run and steady-state executor time from the exec spans.

    An executor's first run is its construction (where the compiled
    backend compiles) plus its first ``run`` call; every later call is
    steady state.  Only outermost exec spans count, so a batch run that
    falls back to scalar runs is one run.
    """
    by_id = {span.span_id: span for span in tracer.spans}

    def outermost(span) -> bool:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.layer == "exec":
                return False
            parent = by_id.get(parent.parent_id)
        return True

    first = steady = 0.0
    runs = 0
    for span in tracer.spans:
        if span.layer != "exec" or not outermost(span):
            continue
        if span.name == "make_executor":
            first += span.duration
        elif span.attrs.get("first"):
            first += span.duration
            runs += 1
        else:
            steady += span.duration
            runs += 1
    return {"exec.first_run_s": first, "exec.steady_run_s": steady, "exec.runs": runs}


def layer_metrics(tracer: Tracer, compile_cache: Optional[dict] = None) -> dict:
    """Per-layer metric values from one traced window (serve and trace
    metrics are filled in by the caller)."""
    values = {name: 0 for name in per_layer_units()}
    rollup = layer_rollup(tracer.spans)
    for layer in ROLLUP_LAYERS:
        entry = rollup.get(layer)
        if entry:
            values[f"{layer}.busy_s"] = entry["busy_s"]
            values[f"{layer}.self_s"] = entry["self_s"]
            values[f"{layer}.calls"] = entry["calls"]
    values.update(exec_split(tracer))
    for name in ("opt.instructions_removed", "artifacts.bytes", "fuzz.oracle_checks"):
        values[name] = tracer.counters.get(name, 0)
    if compile_cache:
        lookups = compile_cache["hits"] + compile_cache["misses"]
        values["exec.compile_cache.hit_ratio"] = (
            compile_cache["hits"] / lookups if lookups else 0.0
        )
    values["trace.spans"] = len(tracer.spans)
    return values
