"""The per-pass leakage sanitizer (``REPRO_OPT_SANITIZE``)."""

import pytest

from repro.ir import parse_module
from repro.opt import (
    LeakFingerprint,
    LeakSanitizerError,
    sanitize_enabled,
)
from repro.opt.pipeline import optimize, optimize_function

# A branch-free selection (what the repair emits)...
CLEAN = """
func @f(k: int) {
entry:
  p = mov k < 0
  r = ctsel p, 1, 2
  ret r
}
"""

# ...and the secret-steered branch a broken pass would rewrite it into.
LEAKY = """
func @f(k: int) {
entry:
  p = mov k < 0
  br p, a, b
a:
  jmp b
b:
  r = phi [1, a], [2, entry]
  ret r
}
"""

SBOX = """
const global @sbox[256]
func @f(k: int) {
entry:
  i = mov k & 255
  x = load sbox[i]
  ret x
}
"""


def replace_body(function, text):
    donor = parse_module(text).functions[function.name]
    function.blocks = donor.blocks
    function.params = donor.params


class TestFingerprint:
    def test_counts_branches_and_indices(self):
        clean = parse_module(CLEAN).functions["f"]
        leaky = parse_module(LEAKY).functions["f"]
        sbox = parse_module(SBOX).functions["f"]
        assert LeakFingerprint.of(clean) == LeakFingerprint(0, 0)
        assert LeakFingerprint.of(leaky) == LeakFingerprint(1, 0)
        assert LeakFingerprint.of(sbox) == LeakFingerprint(0, 1)


class TestCatchesLeakyPass:
    def test_branch_introducing_pass_is_named(self):
        module = parse_module(CLEAN)
        function = module.functions["f"]

        def deoptimize(fn):
            replace_body(fn, LEAKY)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("deoptimize", deoptimize),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "deoptimize"
        assert exc.value.diagnostic.rule == "OPT-LEAK-BRANCH"
        assert "deoptimize" in str(exc.value)
        assert "deoptimize" in exc.value.diagnostic.fixit

    def test_index_introducing_pass_is_named(self):
        module = parse_module("const global @sbox[256]\n" + CLEAN)
        function = module.functions["f"]

        def tableize(fn):
            replace_body(fn, SBOX)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("tableize", tableize),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "tableize"
        assert exc.value.diagnostic.rule == "OPT-LEAK-INDEX"

    def test_ssa_breaking_pass_is_named(self):
        module = parse_module(CLEAN)
        function = module.functions["f"]

        def truncate(fn):
            fn.entry.terminator = None
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("truncate", truncate),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "truncate"
        assert exc.value.diagnostic.rule == "OPT-SSA-BROKEN"

    def test_no_change_pass_skips_the_check(self):
        # A pass reporting no change is never re-analysed, even if the
        # function already contains a leak.
        module = parse_module(LEAKY)
        function = module.functions["f"]
        fired = optimize_function(
            function,
            passes=(("noop", lambda fn: False),),
            sanitize=True,
            module=module,
        )
        assert fired == []


class TestCleanPipeline:
    def test_real_pipeline_passes_under_sanitizer(self):
        from repro.core.repair import repair_module

        module = parse_module(LEAKY)
        repaired = repair_module(module)
        optimized = optimize(repaired, sanitize=True)
        assert set(optimized.functions) == set(repaired.functions)

    def test_env_var_gates_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OPT_SANITIZE", raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_OPT_SANITIZE", "0")
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_OPT_SANITIZE", "1")
        assert sanitize_enabled()
        # Was on for any value but "0": "off" armed the sanitizer.
        monkeypatch.setenv("REPRO_OPT_SANITIZE", "off")
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_OPT_SANITIZE", "maybe")
        with pytest.raises(ValueError, match="REPRO_OPT_SANITIZE"):
            sanitize_enabled()


# Balanced select (arms 1 and 2, equal Hamming weight)...
BALANCED_SEL = """
func @f(k: int) {
entry:
  p = mov k < 0
  r = ctsel p, 1, 2
  ret r
}
"""

# ...rewritten with imbalanced constant arms (weights 8 vs 0).
IMBALANCED_SEL = """
func @f(k: int) {
entry:
  p = mov k < 0
  r = ctsel p, 255, 0
  ret r
}
"""

# Variable arms: not provably balanced, counted the same before and
# after a pass folds one arm to a constant.
VAR_ARM_SEL = """
func @f(k: int, x: int) {
entry:
  p = mov k < 0
  y = mov x + 0
  r = ctsel p, y, 0
  ret r
}
"""

FOLDED_ARM_SEL = """
func @f(k: int, x: int) {
entry:
  p = mov k < 0
  r = ctsel p, 255, 0
  ret r
}
"""


class TestPowerFingerprint:
    def test_imbalance_introducing_pass_is_named(self):
        module = parse_module(BALANCED_SEL)
        function = module.functions["f"]

        def imbalance(fn):
            replace_body(fn, IMBALANCED_SEL)
            return True

        with pytest.raises(LeakSanitizerError) as exc:
            optimize_function(
                function,
                passes=(("imbalance", imbalance),),
                sanitize=True,
                module=module,
            )
        assert exc.value.pass_name == "imbalance"
        assert exc.value.diagnostic.rule == "OPT-LEAK-POWER"

    def test_constant_folding_an_arm_is_not_a_violation(self):
        # Folding a variable arm to an imbalanced constant only *reveals*
        # a potential imbalance the fingerprint already counted.
        module = parse_module(VAR_ARM_SEL)
        function = module.functions["f"]
        before = LeakFingerprint.of(function)
        assert before.ctsel_imbalances == 1

        def fold(fn):
            replace_body(fn, FOLDED_ARM_SEL)
            return True

        fired = optimize_function(
            function,
            passes=(("fold", fold),),
            sanitize=True,
            module=module,
        )
        assert "fold" in fired
        assert LeakFingerprint.of(function).ctsel_imbalances == 1

    def test_guard_selects_are_not_counted(self):
        module = parse_module("""
        func @f(k: int) {
        entry:
          p = mov k < 0
          r = ctsel p, 255, 0, guard
          ret r
        }
        """)
        fingerprint = LeakFingerprint.of(module.functions["f"])
        assert fingerprint.ctsel_imbalances == 0
