"""Backend selection: one knob choosing how IR modules are executed.

Four backends share the same constructor signature and the same
:meth:`run` contract:

* ``"interp"`` — :class:`repro.exec.interpreter.Interpreter`, the direct
  operational semantics of the paper's language.  Slow, obviously correct;
  this is the reference every other backend is tested against.
* ``"compiled"`` — :class:`repro.exec.compiled.CompiledExecutor`, which
  lowers each function to generated Python source at its first call.
  Roughly an order of magnitude faster per run once compiled; semantics
  are enforced to be identical by the differential test suite
  (``tests/integration/test_backend_equivalence.py``).
* ``"auto"`` — the same class, tiered by use: each function is
  interpreted until it has been called
  :data:`~repro.exec.compiled.HOT_CALLS` times (counted per module and
  option set, across executors) and compiled at the next call; a
  function whose CFG has a cycle is compiled at its first call.  A module
  run a handful of times — a build's output check, a Covenant 1 check, a
  fuzz sample — never pays for compilation; one run many times does.
* ``"batch"`` — :class:`repro.exec.batch.BatchExecutor`, the
  structure-of-arrays backend.  ``run`` delegates to the compiled backend;
  its extra ``run_batch(name, vectors)`` entry point executes many argument
  vectors lock-step (with an optional NumPy fast path) for the
  many-execution verify/fuzz workloads.  Per-lane results are
  bit-identical to a scalar loop
  (``tests/integration/test_batch_equivalence.py``).

The default is ``"auto"``.  It can be overridden per call site (every
public entry point takes a ``backend=`` argument) or process-wide through
the ``REPRO_BACKEND`` environment variable — handy for re-running any
experiment on the reference semantics without touching code::

    REPRO_BACKEND=interp python benchmarks/bench_figures.py

An unknown ``$REPRO_BACKEND`` value is reported lazily — at the first
``make_executor`` call — so importing the package never fails, but every
execution path does, with the full list of valid names
(:mod:`repro.knobs`).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.exec.batch import BatchExecutor
from repro.exec.compiled import HOT_CALLS, CompiledExecutor
from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.interpreter import (
    DEFAULT_MAX_CALL_DEPTH,
    DEFAULT_MAX_STEPS,
    ExecutionResult,
    Interpreter,
)
from repro.ir.module import Module
from repro.knobs import KNOBS, knob
from repro.obs import OBS

#: Recognised backend names.
BACKENDS = KNOBS["REPRO_BACKEND"].choices


def default_backend() -> str:
    """The backend used when none is requested explicitly."""
    return knob("REPRO_BACKEND")


def resolve_backend(backend: Optional[str]) -> str:
    """Normalise a ``backend=`` argument (``None`` means "the default")."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} "
            f"(expected one of {', '.join(BACKENDS)})"
        )
    return backend


def make_executor(
    module: Module,
    *,
    backend: Optional[str] = None,
    strict_memory: bool = True,
    record_trace: bool = True,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    cache=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
):
    """Build an executor for ``module`` on the selected backend.

    The returned object is an :class:`Interpreter`, a
    :class:`CompiledExecutor` or a :class:`BatchExecutor`; each exposes
    ``run(name, args)`` returning an
    :class:`~repro.exec.interpreter.ExecutionResult`.
    """
    resolved = resolve_backend(backend)
    if OBS.enabled:
        OBS.counter(f"exec.dispatch.{resolved}")
    cls = _BACKEND_CLASSES[resolved]
    return cls(
        module,
        strict_memory=strict_memory,
        record_trace=record_trace,
        cost_model=cost_model,
        cache=cache,
        max_steps=max_steps,
        max_call_depth=max_call_depth,
    )


_BACKEND_CLASSES = {
    "interp": Interpreter,
    "compiled": CompiledExecutor,
    "auto": partial(CompiledExecutor, hot_calls=HOT_CALLS),
    "batch": BatchExecutor,
}


def run_many(
    executor, name: str, vectors: Sequence[Sequence[object]]
) -> list[ExecutionResult]:
    """Execute ``@name`` once per argument vector on any backend.

    Batch-capable executors receive the whole family at once (one
    structure-of-arrays dispatch); scalar backends fall back to a plain
    loop.  Either way the result list is index-aligned with ``vectors``
    and bit-identical across backends.  Argument vectors are not mutated.
    """
    run_batch = getattr(executor, "run_batch", None)
    if run_batch is not None:
        return run_batch(name, vectors)
    return [executor.run(name, list(vector)) for vector in vectors]
