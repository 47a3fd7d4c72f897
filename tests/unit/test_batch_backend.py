"""The batch backend's machinery: knobs, dedup, chunking, caches, aborts.

The end-to-end guarantee (per-lane results bit-identical to a scalar
loop over all benchmarks) lives in
``tests/integration/test_batch_equivalence.py``; this file pins the parts
of the engine a differential sweep cannot see — environment knobs, the
deduplication and chunking bookkeeping, the fallback/abort counters, and
backend selection.
"""

import pytest

from repro.exec import batch as batch_module
from repro.exec import (
    BatchExecutor,
    CompiledExecutor,
    make_executor,
    resolve_backend,
    run_many,
)
from repro.ir import parse_module
from repro.knobs import KNOBS
from repro.obs import OBS, configure

SUM_IR = """
func @sum(a: ptr, n: int) {
entry:
  jmp head
head:
  i = phi [0, entry], [i2, body]
  s = phi [0, entry], [s2, body]
  p = mov i < n
  br p, body, done
body:
  x = load a[i]
  s2 = mov s + x
  i2 = mov i + 1
  jmp head
done:
  ret s
}
"""


def _sum_vectors(count=8, width=4):
    return [
        [[(lane * 7 + k) % 97 for k in range(width)], width]
        for lane in range(count)
    ]


def _observe(result):
    return (
        result.value, result.cycles, result.steps, result.trace,
        [str(v) for v in result.violations], result.arrays,
        result.global_state,
    )


class TestKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        executor = BatchExecutor(parse_module(SUM_IR))
        assert executor.batch_size == KNOBS["REPRO_BATCH_SIZE"].default

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "32")
        executor = BatchExecutor(parse_module(SUM_IR))
        assert executor.batch_size == 32

    def test_constructor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "32")
        monkeypatch.setenv("REPRO_BATCH_NUMPY", "0")
        executor = BatchExecutor(
            parse_module(SUM_IR), batch_size=4, use_numpy=True,
        )
        assert executor.batch_size == 4
        assert executor.np is not None or batch_module._np is None

    def test_bad_batch_size_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "zero")
        with pytest.raises(ValueError, match="REPRO_BATCH_SIZE"):
            BatchExecutor(parse_module(SUM_IR))
        monkeypatch.setenv("REPRO_BATCH_SIZE", "-3")
        with pytest.raises(ValueError, match="REPRO_BATCH_SIZE"):
            BatchExecutor(parse_module(SUM_IR))

    @pytest.mark.parametrize("raw", ["", "1", "on", "YES", "true"])
    def test_numpy_knob_on_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH_NUMPY", raw)
        executor = BatchExecutor(parse_module(SUM_IR))
        assert executor.np is batch_module._np

    @pytest.mark.parametrize("raw", ["0", "off", "No", "false"])
    def test_numpy_knob_off_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH_NUMPY", raw)
        assert BatchExecutor(parse_module(SUM_IR)).np is None

    @pytest.mark.parametrize("raw", ["junk", "2", "enable"])
    def test_bad_numpy_knob_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BATCH_NUMPY", raw)
        with pytest.raises(ValueError, match="REPRO_BATCH_NUMPY"):
            BatchExecutor(parse_module(SUM_IR))

    def test_numpy_knob_still_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_NUMPY", "0")
        module = parse_module(SUM_IR)
        executor = BatchExecutor(module)
        assert executor.np is None
        scalar = CompiledExecutor(module)
        vectors = _sum_vectors()
        got = executor.run_batch("sum", vectors)
        ref = [scalar.run("sum", [list(v[0]), v[1]]) for v in vectors]
        assert [_observe(g) for g in got] == [_observe(r) for r in ref]


class TestBatchAPI:
    def test_empty_batch(self):
        assert BatchExecutor(parse_module(SUM_IR)).run_batch("sum", []) == []

    def test_scalar_run_delegates(self):
        module = parse_module(SUM_IR)
        ref = CompiledExecutor(module).run("sum", [[1, 2, 3], 3])
        got = BatchExecutor(module).run("sum", [[1, 2, 3], 3])
        assert _observe(got) == _observe(ref)

    def test_input_vectors_are_not_mutated(self):
        vectors = _sum_vectors()
        snapshot = [[list(a) if isinstance(a, list) else a for a in v]
                    for v in vectors]
        BatchExecutor(parse_module(SUM_IR)).run_batch("sum", vectors)
        assert vectors == snapshot

    def test_run_many_loops_on_scalar_backends(self):
        module = parse_module(SUM_IR)
        vectors = _sum_vectors(count=3)
        for backend in ("interp", "compiled", "batch"):
            executor = make_executor(module, backend=backend)
            results = run_many(executor, "sum", vectors)
            assert [r.value for r in results] == [
                sum(v[0]) for v in vectors
            ]

    def test_chunking_covers_all_lanes(self):
        module = parse_module(SUM_IR)
        executor = BatchExecutor(module, batch_size=3)
        vectors = _sum_vectors(count=10)
        got = executor.run_batch("sum", vectors)
        assert [g.value for g in got] == [sum(v[0]) for v in vectors]

    def test_duplicate_lanes_share_one_execution(self):
        module = parse_module(SUM_IR)
        executor = BatchExecutor(module)
        vectors = [[[5, 6], 2], [[7, 8], 2], [[5, 6], 2], [[5, 6], 2]]
        configure(enabled=True)
        try:
            OBS.counters.pop("exec.batch.dedup", None)
            got = executor.run_batch("sum", vectors)
            assert OBS.counters.get("exec.batch.dedup") == 2
        finally:
            configure(enabled=False)
        assert [g.value for g in got] == [11, 15, 11, 11]
        # Deduplicated results are fresh containers, not shared objects.
        assert got[0].trace is not got[2].trace
        assert got[0].arrays[0] is not got[2].arrays[0]
        assert _observe(got[0]) == _observe(got[2]) == _observe(got[3])

    def test_pointer_arguments_fall_back_to_scalar(self):
        """Unsupported argument shapes bypass lock-step entirely — whatever
        the scalar backend does with them (here: raise) happens verbatim."""
        module = parse_module(SUM_IR)
        scalar = CompiledExecutor(module)
        executor = BatchExecutor(module)
        from repro.exec import Memory

        memory = Memory()
        pointer = memory.allocate("shared", 2, [3, 4])
        with pytest.raises(Exception) as ref:
            for _ in range(2):
                scalar.run("sum", [pointer, 2])
        configure(enabled=True)
        try:
            OBS.counters.pop("exec.batch.fallback", None)
            with pytest.raises(Exception) as got:
                executor.run_batch("sum", [[pointer, 2], [pointer, 2]])
            assert OBS.counters.get("exec.batch.fallback") == 1
        finally:
            configure(enabled=False)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)

    def test_cache_mode_falls_back_to_scalar(self):
        from repro.cache import CacheHierarchy

        module = parse_module(SUM_IR)
        executor = BatchExecutor(
            module, record_trace=False, cache=CacheHierarchy(),
        )
        got = executor.run_batch("sum", _sum_vectors(count=2))
        assert [g.value for g in got] == [
            sum(v[0]) for v in _sum_vectors(count=2)
        ]


class TestErrorParity:
    def test_lane_errors_surface_in_lane_order(self):
        module = parse_module(SUM_IR)
        scalar = CompiledExecutor(module, strict_memory=True)
        batch = BatchExecutor(module, strict_memory=True)
        # Lane 2 reads out of bounds (n exceeds the array) and must raise
        # the same error the scalar loop raises at that lane.
        vectors = [[[1, 2], 2], [[3, 4], 2], [[5, 6], 3], [[7, 8], 9]]
        with pytest.raises(Exception) as ref:
            for v in vectors:
                scalar.run("sum", [list(v[0]), v[1]])
        with pytest.raises(Exception) as got:
            batch.run_batch("sum", vectors)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)

    def test_step_limit_parity(self):
        module = parse_module(SUM_IR)
        scalar = CompiledExecutor(module, max_steps=30)
        batch = BatchExecutor(module, max_steps=30)
        vectors = _sum_vectors(count=3, width=8)
        with pytest.raises(Exception) as ref:
            for v in vectors:
                scalar.run("sum", [list(v[0]), v[1]])
        with pytest.raises(Exception) as got:
            batch.run_batch("sum", vectors)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


class TestBackendSelection:
    def test_batch_is_a_registered_backend(self):
        module = parse_module(SUM_IR)
        executor = make_executor(module, backend="batch")
        assert isinstance(executor, BatchExecutor)
        assert executor.run("sum", [[2, 3], 2]).value == 5

    def test_env_var_selects_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend(None) == "batch"
        module = parse_module(SUM_IR)
        assert isinstance(make_executor(module), BatchExecutor)

    def test_unknown_env_backend_raises_at_make_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        module = parse_module(SUM_IR)
        with pytest.raises(ValueError) as info:
            make_executor(module)
        message = str(info.value)
        assert "turbo" in message
        for name in ("interp", "compiled", "batch"):
            assert name in message
