"""The compiled backend: semantics, error parity, and backend selection.

Most tests here run the same program under both backends and require not
just the same results but the same *failures* — exception type and message
— because downstream tooling (the verifiers, the CLI) matches on them.
``run_both`` and ``error_both`` check every case under each option set the
compiled backend generates different code for: no trace, trace recording,
and cache-hierarchy simulation; and on both the ``compiled`` backend and
the ``auto`` backend, run until its functions have tiered up.
"""

import pytest

from repro.cache import CacheHierarchy
from repro.exec import (
    HOT_CALLS,
    CompiledExecutor,
    Interpreter,
    InterpreterError,
    MemorySafetyViolation,
    StepLimitExceeded,
    clear_compile_cache,
    make_executor,
    resolve_backend,
    tier_stats,
)
from repro.ir import parse_module

#: The option sets that select different generated code.
OPTION_SETS = ("no-trace", "trace", "cache")


def _options(option_set: str, kwargs: dict) -> dict:
    """Executor options for one set; a fresh cache per executor, so both
    backends start from the same cold hierarchy."""
    options = dict(kwargs)
    options["record_trace"] = option_set == "trace"
    if option_set == "cache":
        options["cache"] = CacheHierarchy()
    return options


def run(text: str, name: str, args, **kwargs):
    return CompiledExecutor(parse_module(text), **kwargs).run(name, args)


def _tiered_runs(module, option_set: str, kwargs: dict):
    """Executors to compare with the interpreter: ``compiled`` once, and
    ``auto`` HOT_CALLS + 2 times on a fresh compile-cache entry, so its
    runs go interpreted, then mixed, then compiled."""
    clear_compile_cache()
    yield "compiled", CompiledExecutor(module, **_options(option_set, kwargs))
    clear_compile_cache()
    for run_index in range(HOT_CALLS + 2):
        yield f"auto#{run_index}", make_executor(
            module, backend="auto", **_options(option_set, kwargs))


def run_both(text: str, name: str, args, **kwargs):
    """Run under the interpreter, ``compiled`` and ``auto`` in every option
    set; assert identical observations; return the ``compiled`` result of
    the last set."""
    module = parse_module(text)
    for option_set in OPTION_SETS:
        ref = Interpreter(module, **_options(option_set, kwargs)).run(
            name, list(args))
        for label, executor in _tiered_runs(module, option_set, kwargs):
            where = (option_set, label)
            got = executor.run(name, list(args))
            assert got.value == ref.value, where
            assert got.cycles == ref.cycles, where
            assert got.steps == ref.steps, where
            assert got.arrays == ref.arrays, where
            assert got.global_state == ref.global_state, where
            assert [str(v) for v in got.violations] == [
                str(v) for v in ref.violations], where
            if ref.trace is not None:
                assert got.trace.instructions == ref.trace.instructions, where
                assert got.trace.memory == ref.trace.memory, where
            if label == "compiled":
                compiled = got
    return compiled


def error_both(text: str, name: str, args, **kwargs):
    """The interpreter, ``compiled`` and ``auto`` must raise the same
    exception type and message, in every option set."""
    module = parse_module(text)
    for option_set in OPTION_SETS:
        with pytest.raises(Exception) as ref_info:
            Interpreter(module, **_options(option_set, kwargs)).run(
                name, list(args))
        for label, executor in _tiered_runs(module, option_set, kwargs):
            with pytest.raises(Exception) as got_info:
                executor.run(name, list(args))
            where = (option_set, label)
            assert type(got_info.value) is type(ref_info.value), where
            assert str(got_info.value) == str(ref_info.value), where
            if label == "compiled":
                compiled_info = got_info
    return compiled_info


class TestSemantics:
    def test_arithmetic_and_return(self):
        result = run_both(
            "func @f(a: int, b: int) { entry: x = mov a * b ret x + 1 }",
            "f", [6, 7],
        )
        assert result.value == 43

    def test_wrapping_matches_interpreter(self):
        # Register values may be raw (unwrapped) ints loaded from memory;
        # fused arithmetic must wrap exactly where eval_binop wraps.
        result = run_both("""
        func @f(a: ptr) {
        entry:
          x = load a[0]
          y = mov x + 1
          z = mov y & x
          w = mov z >> 1
          c = mov x < y
          store w, a[0]
          ret c
        }
        """, "f", [[2**63 - 1]])
        assert isinstance(result.value, int)

    def test_division_and_modulo(self):
        result = run_both("""
        func @f(a: int, b: int) {
        entry:
          q = mov a / b
          r = mov a % b
          z = mov a / 0
          qs = mov q * 1000
          rs = mov r * 10
          t = mov qs + rs
          ret t + z
        }
        """, "f", [-7, 2])
        # C semantics: truncation toward zero; division by zero yields 0.
        assert result.value == -3010

    def test_phi_parallel_evaluation(self):
        result = run_both("""
        func @f(n: int) {
        entry:
          jmp body
        body:
          a = phi [1, entry]
          b = phi [2, entry]
          jmp swap
        swap:
          x = phi [b, body]
          y = phi [a, body]
          r = mov x * 10
          ret r + y
        }
        """, "f", [0])
        assert result.value == 21

    def test_branch_ctsel_alloc(self):
        result = run_both("""
        func @f(c: int) {
        entry:
          buf = alloc 2
          x = ctsel c, 10, 20
          store x, buf[0]
          br c, yes, no
        yes:
          jmp done
        no:
          jmp done
        done:
          r = phi [1, yes], [2, no]
          y = load buf[0]
          ret r + y
        }
        """, "f", [1])
        assert result.value == 11

    def test_calls_and_globals(self):
        result = run_both("""
        global @g[2]
        func @helper(v: int) {
        entry:
          store v, g[1]
          ret v + 1
        }
        func @f(v: int) {
        entry:
          x = call @helper(v)
          y = load g[1]
          ret x + y
        }
        """, "f", [9])
        assert result.value == 19

    def test_argument_word_wrapping(self):
        assert run_both("func @f(a: int) { entry: ret a }",
                        "f", [2**64 + 5]).value == 5

    def test_unary_operators(self):
        result = run_both("""
        func @f(a: int) {
        entry:
          x = mov -a
          y = mov ~a
          z = mov !a
          t = mov x + y
          ret t + z
        }
        """, "f", [3])
        assert result.value == -7


class TestTraceParity:
    def test_instruction_and_memory_traces(self):
        text = """
        func @f(a: ptr) {
        entry:
          x = load a[1]
          store x, a[0]
          ret x
        }
        """
        module = parse_module(text)
        ref = Interpreter(module).run("f", [[5, 6]])
        got = CompiledExecutor(module).run("f", [[5, 6]])
        assert got.trace.operation_signature() == ref.trace.operation_signature()
        assert got.trace.memory == ref.trace.memory

    def test_call_sites_interleave_like_interpreter(self):
        # The callee's sites must appear between the call site and the
        # caller's subsequent instructions, exactly as the interpreter
        # records them step by step.
        text = """
        func @inner(v: int) { entry: x = mov v + 1 ret x }
        func @f(v: int) {
        entry:
          a = call @inner(v)
          b = call @inner(a)
          ret b
        }
        """
        module = parse_module(text)
        ref = Interpreter(module).run("f", [1])
        got = CompiledExecutor(module).run("f", [1])
        assert got.trace.operation_signature() == ref.trace.operation_signature()

    def test_no_trace_mode_has_no_trace(self):
        result = run("func @f() { entry: ret 0 }", "f", [],
                     record_trace=False)
        assert result.trace is None


class TestErrorParity:
    def test_wrong_arity(self):
        info = error_both("func @f(a: int) { entry: ret a }", "f", [])
        assert "expects" in str(info.value)

    def test_pointer_arithmetic_rejected(self):
        error_both("func @f(a: ptr) { entry: x = mov a + 1 ret x }",
                   "f", [[1]])

    def test_pointer_equality_allowed(self):
        result = run_both("func @f(a: ptr) { entry: x = mov a == a ret x }",
                          "f", [[1]])
        assert result.value == 1

    def test_returning_pointer_rejected(self):
        error_both("func @f(a: ptr) { entry: xp = mov a ret xp }",
                   "f", [[1]])

    def test_undefined_variable(self):
        error_both("""
        func @f(c: int) {
        entry:
          br c, use, skip
        use:
          x = mov 1
          jmp done
        skip:
          jmp done
        done:
          y = mov x + 1
          ret y
        }
        """, "f", [0])

    def test_strict_oob_raises_same_violation(self):
        info = error_both("func @f(a: ptr) { entry: x = load a[5] ret x }",
                          "f", [[1]])
        assert isinstance(info.value, MemorySafetyViolation)

    def test_permissive_oob_recorded(self):
        result = run_both("func @f(a: ptr) { entry: x = load a[5] ret 0 }",
                          "f", [[1]], strict_memory=False)
        assert len(result.violations) == 1

    def test_step_limit(self):
        module = parse_module("func @f() { entry: jmp entry }")
        with pytest.raises(StepLimitExceeded):
            CompiledExecutor(module, max_steps=100).run("f", [])

    def test_recursion_depth_limit(self):
        module = parse_module("""
        func @f(n: int) {
        entry:
          x = call @f(n)
          ret x
        }
        """)
        with pytest.raises(InterpreterError, match="depth"):
            CompiledExecutor(module).run("f", [1])

    def test_branch_condition_pointer(self):
        error_both("""
        func @f(a: ptr) {
        entry:
          br a, yes, no
        yes:
          jmp done
        no:
          jmp done
        done:
          ret 0
        }
        """, "f", [[1]])

    def test_store_pointer_rejected(self):
        error_both("""
        func @f(a: ptr, b: ptr) {
        entry:
          store b, a[0]
          ret 0
        }
        """, "f", [[1], [2]])

    def test_unknown_function(self):
        module = parse_module("func @f() { entry: ret 0 }")
        with pytest.raises(KeyError):
            CompiledExecutor(module).run("nope", [])


#: A helper that writes a global, so every case below has a call in the
#: failing block: with tracing on, the block records its sites in runs
#: split at the call, and the error must still be the interpreter's.
HELPER = """
global @g[2]
func @helper(v: int) {
entry:
  store v, g[0]
  ret v
}
"""


class TestErrorParityInCallBlocks:
    def test_undefined_call_argument(self):
        error_both(HELPER + """
        func @f(c: int) {
        entry:
          br c, def, use
        def:
          u = mov 1
          jmp use
        use:
          x = call @helper(u)
          ret x
        }
        """, "f", [0])

    def test_pointer_arithmetic_after_call(self):
        error_both(HELPER + """
        func @f(a: ptr) {
        entry:
          x = call @helper(1)
          y = mov a + x
          ret y
        }
        """, "f", [[1]])

    def test_store_pointer_after_call(self):
        error_both(HELPER + """
        func @f(a: ptr, b: ptr) {
        entry:
          x = call @helper(2)
          store b, a[0]
          ret x
        }
        """, "f", [[1], [2]])

    def test_alloc_with_pointer_size(self):
        error_both(HELPER + """
        func @f(a: ptr) {
        entry:
          x = call @helper(3)
          buf = alloc a
          ret x
        }
        """, "f", [[1]])

    def test_constant_condition_ctsel(self):
        error_both(HELPER + """
        func @f(c: int) {
        entry:
          br c, def, use
        def:
          u = mov 1
          jmp use
        use:
          x = call @helper(c)
          y = ctsel 1, u, x
          ret y
        }
        """, "f", [0])

    def test_constant_condition_ctsel_selects_defined_arm(self):
        result = run_both(HELPER + """
        func @f(c: int) {
        entry:
          br c, def, use
        def:
          u = mov 1
          jmp use
        use:
          x = call @helper(c)
          y = ctsel 0, u, x
          ret y
        }
        """, "f", [0])
        assert result.value == 0

    def test_callee_error_passes_through(self):
        info = error_both("""
        func @inner(a: ptr) { entry: x = mov a * 2 ret x }
        func @f(a: ptr) {
        entry:
          x = call @inner(a)
          ret x
        }
        """, "f", [[1]])
        assert "'*' applied to a pointer" in str(info.value)

    def test_callee_memory_violation_passes_through(self):
        info = error_both(HELPER + """
        func @inner(a: ptr) { entry: x = load a[3] ret x }
        func @f(a: ptr) {
        entry:
          y = call @helper(1)
          x = call @inner(a)
          ret x
        }
        """, "f", [[1]])
        assert isinstance(info.value, MemorySafetyViolation)

    def test_call_to_undefined_function(self):
        error_both("""
        func @f(v: int) {
        entry:
          x = call @missing(v)
          ret x
        }
        """, "f", [1])


class TestErrorParityPerShape:
    def test_undefined_phi_incoming(self):
        error_both("""
        func @f(c: int) {
        entry:
          br c, def, join
        def:
          u = mov 1
          jmp join
        join:
          x = phi [u, entry], [u, def]
          ret x
        }
        """, "f", [0])

    def test_entry_block_with_phis(self):
        error_both("""
        func @f(c: int) {
        entry:
          x = phi [1, entry]
          ret x
        }
        """, "f", [0])

    def test_division_of_pointer_by_zero(self):
        error_both("func @f(a: ptr) { entry: x = mov a / 0 ret x }",
                   "f", [[1]])

    def test_modulo_of_undefined_by_zero(self):
        error_both("""
        func @f(c: int) {
        entry:
          br c, def, use
        def:
          u = mov 1
          jmp use
        use:
          x = mov u % 0
          ret x
        }
        """, "f", [0])

    def test_logical_not_of_pointer(self):
        error_both("func @f(a: ptr) { entry: x = mov !a ret x }",
                   "f", [[1]])

    def test_undefined_equality_operand(self):
        error_both("""
        func @f(c: int) {
        entry:
          br c, def, use
        def:
          u = mov 1
          jmp use
        use:
          x = mov c == u
          ret x
        }
        """, "f", [0])

    def test_ctsel_condition_pointer(self):
        error_both("func @f(a: ptr) { entry: x = ctsel a, 1, 2 ret x }",
                   "f", [[1]])

    def test_ctsel_undefined_arm(self):
        error_both("""
        func @f(c: int) {
        entry:
          br c, def, use
        def:
          u = mov 1
          jmp use
        use:
          x = ctsel 1, u, c
          ret x
        }
        """, "f", [0])

    def test_load_through_word(self):
        error_both("func @f(a: int) { entry: x = load a[0] ret x }",
                   "f", [3])

    def test_load_index_pointer(self):
        error_both("func @f(a: ptr) { entry: x = load a[a] ret x }",
                   "f", [[1]])

    def test_name_never_defined(self):
        error_both("func @f() { entry: x = mov nowhere + 1 ret x }", "f", [])

    def test_negative_alloc_size(self):
        error_both("""
        func @f(n: int) {
        entry:
          buf = alloc n
          ret 0
        }
        """, "f", [-2])


class TestBackendSelection:
    def test_make_executor_compiled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        module = parse_module("func @f() { entry: ret 1 }")
        executor = make_executor(module)
        assert isinstance(executor, CompiledExecutor)
        assert executor.run("f", []).value == 1

    def test_make_executor_interp(self):
        module = parse_module("func @f() { entry: ret 1 }")
        executor = make_executor(module, backend="interp")
        assert isinstance(executor, Interpreter)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interp")
        assert resolve_backend(None) == "interp"
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_backend(None) == "compiled"

    def test_explicit_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interp")
        assert resolve_backend("compiled") == "compiled"

    def test_unknown_backend_rejected(self):
        module = parse_module("func @f() { entry: ret 1 }")
        with pytest.raises(ValueError):
            make_executor(module, backend="jit")

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        with pytest.raises(ValueError):
            resolve_backend(None)

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        module = parse_module("func @f() { entry: ret 1 }")
        assert resolve_backend(None) == "auto"
        assert make_executor(module).hot_calls == HOT_CALLS
        assert make_executor(module, backend="compiled").hot_calls == 0
        assert make_executor(module, backend="auto").hot_calls == HOT_CALLS


LOOP = """
func @f(n: int) {
entry:
  jmp head
head:
  i = phi [0, entry], [i2, head]
  i2 = mov i + 1
  c = mov i2 < n
  br c, head, done
done:
  ret i2
}
"""

#: ``f`` calls ``g`` always and ``k`` only when ``a`` is nonzero; ``h``
#: is never called.
CALLS = """
func @g(a: int) { entry: y = mov a * 3 ret y }
func @k(a: int) { entry: y = mov a - 1 ret y }
func @h(a: int) { entry: ret a }
func @f(a: int) {
entry:
  x = call @g(a)
  br a, more, done
more:
  z = call @k(x)
  jmp done
done:
  r = phi [x, entry], [z, more]
  ret r
}
func @f2(a: int) { entry: x = call @g(a) ret x }
"""


def _auto(module, **options):
    return make_executor(module, backend="auto", **options)


def _shells(module, backend="auto", **options):
    """The call targets of ``module``'s compile-cache entry."""
    return make_executor(module, backend=backend,
                         **options)._compiled.functions


class TestTiers:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_compile_cache()
        yield
        clear_compile_cache()

    def test_function_compiles_after_hot_calls(self):
        module = parse_module("func @f(a: int) { entry: x = mov a + 1 ret x }")
        for run_index in range(HOT_CALLS):
            # A fresh executor each time: the count lives in the cache entry.
            assert _auto(module).run("f", [run_index]).value == run_index + 1
        assert _shells(module)["f"].blocks is None
        assert tier_stats()["interpreted_calls"] == HOT_CALLS
        assert _auto(module).run("f", [5]).value == 6
        assert _shells(module)["f"].blocks is not None
        assert tier_stats()["compiled_functions"] == 1

    def test_option_sets_count_separately(self):
        module = parse_module("func @f() { entry: ret 1 }")
        for _ in range(HOT_CALLS + 1):
            _auto(module, record_trace=False).run("f", [])
        assert _shells(module)["f"].blocks is None  # record_trace=True entry
        assert _shells(module, record_trace=False)["f"].blocks is not None

    def test_looping_function_compiles_at_first_call(self):
        module = parse_module(LOOP)
        assert _auto(module).run("f", [5]).value == 5
        assert _shells(module)["f"].blocks is not None
        assert tier_stats() == {
            "hot_calls": HOT_CALLS, "compiled_functions": 1,
            "interpreted_calls": 0,
        }

    def test_step_limit_of_looping_function(self):
        module = parse_module(LOOP)
        with pytest.raises(StepLimitExceeded) as ref:
            Interpreter(module, max_steps=100).run("f", [1000])
        with pytest.raises(StepLimitExceeded) as got:
            _auto(module, max_steps=100).run("f", [1000])
        assert str(got.value) == str(ref.value)
        assert tier_stats()["interpreted_calls"] == 0

    def test_entry_compiles_only_called_functions(self):
        module = parse_module(CALLS)
        assert make_executor(module, backend="compiled").run(
            "f", [0]).value == 0
        shells = _shells(module, backend="compiled")
        assert {name for name, shell in shells.items()
                if shell.blocks is not None} == {"f", "g"}
        assert tier_stats()["compiled_functions"] == 2
        assert make_executor(module, backend="compiled").run(
            "f", [2]).value == 5
        assert {name for name, shell in shells.items()
                if shell.blocks is None} == {"h", "f2"}

    @pytest.mark.parametrize("option_set", OPTION_SETS)
    def test_calls_across_tiers(self, option_set):
        """Interpreted callers of compiled callees and compiled callers of
        interpreted callees, against the interpreter on every run."""
        module = parse_module(CALLS)
        runs = [("f", [0])] * (HOT_CALLS + 1)  # f and g hot, k cold
        runs += [("f", [4]), ("f2", [7])]  # compiled f -> cold k; cold f2 -> g
        for name, args in runs:
            ref = Interpreter(module, **_options(option_set, {})).run(
                name, list(args))
            got = _auto(module, **_options(option_set, {})).run(
                name, list(args))
            assert (got.value, got.cycles, got.steps) == (
                ref.value, ref.cycles, ref.steps)
            if ref.trace is not None:
                assert got.trace.instructions == ref.trace.instructions
        shells = _shells(module)
        if option_set == "trace":
            assert shells["f"].blocks and shells["g"].blocks
            assert shells["k"].blocks is None and shells["f2"].blocks is None

    def test_concurrent_tier_up(self):
        import sys
        import threading

        module = parse_module(CALLS)
        expected = [Interpreter(module).run("f", [a]).value for a in range(4)]
        failures = []

        def worker():
            for _ in range(3 * HOT_CALLS):
                got = [_auto(module).run("f", [a]).value for a in range(4)]
                if got != expected:
                    failures.append(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # f, g and k are each interpreted exactly HOT_CALLS times and
        # compiled once: a lost count update would interpret one more.
        assert tier_stats() == {
            "hot_calls": HOT_CALLS, "compiled_functions": 3,
            "interpreted_calls": 3 * HOT_CALLS,
        }
