"""Optimisation passes (the ``opt -O1`` stand-in)."""

from repro.opt.constfold import constant_fold, fold_expr
from repro.opt.copyprop import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.pipeline import OptReport, optimize, optimize_function
from repro.opt.sanitize import (
    LeakFingerprint,
    LeakSanitizerError,
    sanitize_enabled,
)
from repro.opt.simplify import simplify_algebraic
from repro.opt.simplifycfg import simplify_cfg

__all__ = [
    "LeakFingerprint", "LeakSanitizerError", "OptReport",
    "constant_fold", "eliminate_common_subexpressions",
    "eliminate_dead_code", "fold_expr", "optimize", "optimize_function",
    "propagate_copies", "sanitize_enabled", "simplify_algebraic",
    "simplify_cfg",
]
