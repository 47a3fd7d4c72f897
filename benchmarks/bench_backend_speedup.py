"""Backend speedup — compiled executor vs reference interpreter.

Measures wall-clock dynamic-execution time of the figure-13/14 workloads
(repaired benchmark routines at -O1, plus the oFdF scaling kernels) under
both backends and reports the per-workload and geometric-mean speedups.
The acceptance bar for the compiled backend is a >= 5x geomean in its
dedicated no-trace fast mode.

Next to that steady state it records the *first* run of a fresh module,
compile cost included, of each of the 24 suite originals at -O1 under
``interp``, ``compiled`` and ``auto``: the cost a module run only a few
times pays.  The gate is that ``auto``'s first runs take at most twice
one interpreter run.  Results are written to ``BENCH_backend.json`` at
the repository root.

Run standalone (``python benchmarks/bench_backend_speedup.py``) or through
pytest with the rest of the figure benchmarks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.runner import get_artifacts, repaired_inputs
from repro.bench.stats import geomean
from repro.bench.suite import BENCHMARKS, make_ofdf_source
from repro.core import repair_module
from repro.exec import HOT_CALLS, clear_compile_cache, make_executor
from repro.frontend import compile_source
from repro.opt import optimize
from repro.verify import adapt_inputs

#: The figure-13 routines used for the headline number: the synthetic
#: quartet's representative, small and large ciphers, and the CTBench
#: routine whose repair is dominated by straight-line arithmetic.
FIG13_WORKLOADS = ("tea", "xtea", "speck", "chacha20", "aes",
                   "ctbench_memcmp")

#: Figure-14 oFdF sizes (kept small: each size is a separate module).
FIG14_SIZES = (64, 128)

_REPEATS = 3

#: Backends whose first runs are recorded.
FIRST_RUN_BACKENDS = ("interp", "compiled", "auto")

#: Gate: ``auto``'s first runs over the suite, at most this many times
#: one interpreter run.
FIRST_RUN_BOUND = 2.0
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backend.json"


def _copy(arg):
    return list(arg) if isinstance(arg, list) else arg


def _time_run(module, entry, inputs, backend):
    """Best-of-N wall-clock seconds for one pass over ``inputs``.

    The executor is built outside the timed region: compilation is paid
    once per module (and shared through the compile cache), so steady-state
    execution speed is what the figure workloads actually see.
    """
    executor = make_executor(
        module, backend=backend, record_trace=False, strict_memory=False,
    )
    best = None
    for _ in range(_REPEATS):
        started = time.perf_counter()
        for args in inputs:
            executor.run(entry, [_copy(a) for a in args])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _fig13_cases():
    for name in FIG13_WORKLOADS:
        artifacts = get_artifacts(name)
        inputs = repaired_inputs(artifacts, artifacts.bench.make_inputs(2))
        yield f"{name}-repaired-O1", artifacts.repaired_o1, (
            artifacts.bench.entry, inputs
        )


def _fig14_cases():
    for size in FIG14_SIZES:
        module = compile_source(make_ofdf_source(size), name=f"ofdf{size}")
        repaired_o1 = optimize(repair_module(module))
        inputs = adapt_inputs(module, "ofdf", [
            [[7] * size, [7] * size],
            [[1] + [7] * (size - 1), [2] + [7] * (size - 1)],
        ])
        yield f"ofdf{size}-repaired-O1", repaired_o1, ("ofdf", inputs)


def _first_run(module, entry, args, backend):
    """Best-of-N seconds of a fresh executor's first run, compile cost
    included: every repeat starts from an empty compile cache."""
    best = None
    for _ in range(_REPEATS):
        clear_compile_cache()
        started = time.perf_counter()
        make_executor(
            module, backend=backend, record_trace=False, strict_memory=False,
        ).run(entry, [_copy(a) for a in args])
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    clear_compile_cache()
    return best


def measure_first_runs():
    """One row per suite original at -O1: first-run seconds per backend."""
    rows = []
    for bench in BENCHMARKS:
        module = get_artifacts(bench.name).original_o1
        args = bench.make_inputs(1)[0]
        row = {"workload": f"{bench.name}-original-O1"}
        for backend in FIRST_RUN_BACKENDS:
            row[f"{backend}_seconds"] = _first_run(
                module, bench.entry, args, backend
            )
        rows.append(row)
    return rows


def measure_backend_speedups():
    """One row per workload: interp seconds, compiled seconds, speedup."""
    rows = []
    for label, module, (entry, inputs) in (
        *_fig13_cases(), *_fig14_cases()
    ):
        interp = _time_run(module, entry, inputs, "interp")
        compiled = _time_run(module, entry, inputs, "compiled")
        rows.append({
            "workload": label,
            "interp_seconds": interp,
            "compiled_seconds": compiled,
            "speedup": interp / compiled,
        })
    return rows


def report(rows, first_rows):
    totals = {
        backend: sum(r[f"{backend}_seconds"] for r in first_rows)
        for backend in FIRST_RUN_BACKENDS
    }
    summary = {
        "workloads": rows,
        "geomean_speedup": geomean([r["speedup"] for r in rows]),
        "first_run": {
            "workloads": first_rows,
            "total_seconds": totals,
            "auto_vs_interp": totals["auto"] / totals["interp"],
            "compiled_vs_interp": totals["compiled"] / totals["interp"],
            "bound": FIRST_RUN_BOUND,
            "hot_calls": HOT_CALLS,
        },
        "repeats": _REPEATS,
        "mode": "no-trace",
    }
    _RESULT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def _print(summary):
    print("== Backend speedup: compiled vs interp (wall clock, warm) ==")
    for row in summary["workloads"]:
        print(
            f"  {row['workload']:>28}: {row['interp_seconds'] * 1e3:8.1f} ms"
            f" -> {row['compiled_seconds'] * 1e3:7.1f} ms"
            f"  ({row['speedup']:.2f}x)"
        )
    print(f"  geomean speedup: {summary['geomean_speedup']:.2f}x")
    first = summary["first_run"]
    print("== First run of a fresh module, compile included "
          "(24 originals at -O1) ==")
    for backend, seconds in first["total_seconds"].items():
        print(f"  {backend:>8}: {seconds:6.2f} s")
    print(f"  auto vs interp {first['auto_vs_interp']:.2f}x, compiled vs "
          f"interp {first['compiled_vs_interp']:.2f}x "
          f"(written to {_RESULT_PATH.name})")


def test_backend_speedup(capsys):
    summary = report(measure_backend_speedups(), measure_first_runs())
    with capsys.disabled():
        print()
        _print(summary)
    assert summary["geomean_speedup"] >= 5.0, (
        "compiled backend must be at least 5x faster than the interpreter "
        f"on the figure workloads, got {summary['geomean_speedup']:.2f}x"
    )
    assert summary["first_run"]["auto_vs_interp"] <= FIRST_RUN_BOUND, (
        "auto's first runs must take at most "
        f"{FIRST_RUN_BOUND}x one interpreter run, got "
        f"{summary['first_run']['auto_vs_interp']:.2f}x"
    )


if __name__ == "__main__":
    _print(report(measure_backend_speedups(), measure_first_runs()))
