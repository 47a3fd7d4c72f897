"""Differential testing of the compiled backend against the interpreter.

Every bundled benchmark program — original, repaired, and repaired at -O1 —
runs under the interpreter and under the ``compiled`` and ``auto``
backends on the same inputs; the backends must agree on every observable:
return value, simulated cycles, dynamic step count, access violations,
array outputs, and global state.  With tracing enabled, the full
instruction and memory traces must also match.  ``auto`` starts from an
empty compile cache and runs each input list HOT_CALLS + 2 times, so its
functions tier up part-way through: interpreted, mixed and compiled
frames all run.

This is the acceptance gate for ``repro.exec.compiled``: the interpreter is
the reference semantics, and any divergence here is a compiler bug.
"""

from functools import lru_cache

import pytest

from repro.bench.suite import BENCHMARKS, get_benchmark, load_module
from repro.core import repair_module
from repro.exec import HOT_CALLS, clear_compile_cache, make_executor
from repro.opt import optimize
from repro.verify import adapt_inputs

ALL_NAMES = [b.name for b in BENCHMARKS]

#: The backends checked against the interpreter.
BACKENDS = ("compiled", "auto")


@lru_cache(maxsize=None)
def _variants(name):
    """(module, inputs) per variant; inputs adapted to contract signatures."""
    bench = get_benchmark(name)
    original = load_module(name)
    repaired = repair_module(original)
    repaired_o1 = optimize(repaired)
    inputs = bench.make_inputs(2)
    contract_inputs = adapt_inputs(original, bench.entry, inputs)
    return bench.entry, (
        ("original", original, inputs),
        ("repaired", repaired, contract_inputs),
        ("repaired_o1", repaired_o1, contract_inputs),
    )


def _passes(backend: str) -> int:
    """Passes over the inputs: ``auto`` from an empty compile cache,
    until every function has gone through both tiers."""
    if backend == "compiled":
        return 1
    clear_compile_cache()
    return HOT_CALLS + 2


def _copy(arg):
    return list(arg) if isinstance(arg, list) else arg


def _observation(result):
    """Everything a backend must agree on, with violations as strings so
    dataclass identity does not matter."""
    return (
        result.value,
        result.cycles,
        result.steps,
        [str(v) for v in result.violations],
        result.arrays,
        result.global_state,
    )


class TestNoTraceEquivalence:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_all_variants_agree(self, name):
        self.check(name, "compiled")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_all_variants_agree_auto(self, name):
        self.check(name, "auto")

    @staticmethod
    def check(name, backend):
        entry, variants = _variants(name)
        for label, module, inputs in variants:
            interp = make_executor(
                module, backend="interp", record_trace=False,
                strict_memory=False,
            )
            refs = [interp.run(entry, [_copy(a) for a in args])
                    for args in inputs]
            for _ in range(_passes(backend)):
                executor = make_executor(
                    module, backend=backend, record_trace=False,
                    strict_memory=False,
                )
                for args, ref in zip(inputs, refs):
                    got = executor.run(entry, [_copy(a) for a in args])
                    assert _observation(got) == _observation(ref), (
                        f"{name}/{label}/{backend}: backends diverge "
                        f"on {args!r}"
                    )


class TestTraceEquivalence:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_traces_agree(self, name):
        self.check(name, "compiled")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_traces_agree_auto(self, name):
        self.check(name, "auto")

    @staticmethod
    def check(name, backend):
        entry, variants = _variants(name)
        for label, module, inputs in variants:
            interp = make_executor(
                module, backend="interp", strict_memory=False,
            )
            args = inputs[0]
            ref = interp.run(entry, [_copy(a) for a in args])
            where = f"{name}/{label}/{backend}"
            for _ in range(_passes(backend)):
                got = make_executor(
                    module, backend=backend, strict_memory=False,
                ).run(entry, [_copy(a) for a in args])
                assert _observation(got) == _observation(ref), where
                assert ref.trace is not None and got.trace is not None
                assert got.trace.operation_signature() == (
                    ref.trace.operation_signature()
                ), f"{where}: instruction traces diverge"
                assert got.trace.data_signature() == (
                    ref.trace.data_signature()
                ), f"{where}: memory traces diverge"
                assert got.trace.memory == ref.trace.memory, (
                    f"{where}: memory access records diverge"
                )


class TestCacheModeEquivalence:
    """Cache-hierarchy simulation must see the same address streams."""

    @pytest.mark.parametrize("name", ["tea", "ctbench_memcmp", "ofdf"])
    def test_cache_reports_agree(self, name):
        from repro.cache import CacheHierarchy

        def signature(module, backend, args):
            hierarchy = CacheHierarchy()
            executor = make_executor(
                module, backend=backend, record_trace=False,
                strict_memory=False, cache=hierarchy,
            )
            result = executor.run(entry, [_copy(a) for a in args])
            return result.cycles, hierarchy.report().signature()

        entry, variants = _variants(name)
        for label, module, inputs in variants:
            ref = signature(module, "interp", inputs[0])
            for backend in BACKENDS:
                for _ in range(_passes(backend)):
                    assert signature(module, backend, inputs[0]) == ref, (
                        f"{name}/{label}/{backend}: cache behaviour diverges"
                    )
