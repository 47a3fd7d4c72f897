"""Execution substrate: memory model, interpreter, compiled backend, costs."""

from repro.exec.backend import (
    BACKENDS,
    default_backend,
    make_executor,
    resolve_backend,
    run_many,
)
from repro.exec.batch import (
    BatchExecutor,
    batch_cache_stats,
    clear_batch_caches,
)
from repro.exec.compiled import (
    HOT_CALLS,
    CompiledExecutor,
    CompiledModule,
    clear_compile_cache,
    compile_cache_stats,
    exec_cache_limit,
    get_compiled,
    tier_stats,
)
from repro.exec.costs import DEFAULT_COST_MODEL, CostModel
from repro.exec.interpreter import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
)
from repro.exec.pipeline_model import (
    BranchPredictor,
    PipelineConfig,
    PipelineModel,
    PipelineReport,
)
from repro.exec.memory import (
    AccessViolation,
    Memory,
    MemorySafetyViolation,
    Pointer,
    Region,
)
from repro.exec.traces import (
    InstructionSite,
    MemoryAccess,
    Trace,
    traces_data_consistent,
    traces_data_invariant,
    traces_operation_invariant,
)

def executor_cache_stats() -> dict:
    """One dict over every identity-keyed executor cache.

    The serve layer's ``/v1/stats`` endpoint and the warm-pool diagnostics
    read this to show what a long-running process has pinned; each cache
    entry carries hit/miss/eviction counters plus the live entry count,
    all bounded by ``REPRO_EXEC_CACHE_SIZE``.  ``tier`` counts the
    functions compiled and the calls interpreted while cold.
    """
    return {
        "limit": exec_cache_limit(),
        "compile": compile_cache_stats(),
        "batch": batch_cache_stats(),
        "tier": tier_stats(),
    }


__all__ = [
    "AccessViolation", "BACKENDS", "HOT_CALLS",
    "BatchExecutor", "BranchPredictor", "CompiledExecutor", "CompiledModule",
    "CostModel", "DEFAULT_COST_MODEL",
    "ExecutionResult", "InstructionSite", "Interpreter", "InterpreterError",
    "Memory", "MemoryAccess", "MemorySafetyViolation", "PipelineConfig",
    "PipelineModel", "PipelineReport", "Pointer", "Region",
    "StepLimitExceeded", "Trace",
    "batch_cache_stats", "clear_batch_caches",
    "clear_compile_cache", "compile_cache_stats",
    "default_backend", "exec_cache_limit", "executor_cache_stats",
    "get_compiled", "make_executor", "resolve_backend",
    "run_many", "tier_stats", "traces_data_consistent",
    "traces_data_invariant", "traces_operation_invariant",
]
