"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric.  ``--trace 1`` measures the same window again with spans recorded
around every layer's public functions and prints every per-layer metric,
including self times and the tracing overhead (traced minus untraced
time over identical work).  Every time is calibrated to a reference
machine speed (:mod:`perfbench.calibrate`); the record keeps the wall
times too.  Every run runs the correctness gates;
a failed gate makes ``correct`` false and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(header, latency sample sizes, failures) goes to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans there as JSON Lines.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite_cold", "verify_warm", "fuzz_blind", "serve_mixed")

#: End-to-end metrics and units, as listed in ``BENCHMARK.json``.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Modules each in-process workload uses, lazily imported ones included.
#: Importing them in a new interpreter is part of the workload's set-up;
#: the benchmark process imports them before its first window, so no
#: window pays for an import.
IMPORTS = {
    "suite_cold": ("repro.artifacts", "repro.bench.runner", "repro.baseline",
                   "repro.core.repair", "repro.frontend", "repro.ir.printer",
                   "repro.ir.validate", "repro.opt.pipeline",
                   "repro.statics.certifier", "repro.verify.isochronicity"),
    "verify_warm": ("repro.artifacts", "repro.bench.runner", "repro.ir.parser",
                    "repro.verify.covenant", "repro.exec"),
    "fuzz_blind": ("repro.fuzz.engine", "repro.fuzz.oracles", "repro.frontend",
                   "repro.core.repair", "repro.opt.pipeline", "repro.opt.sanitize",
                   "repro.statics.certifier", "repro.verify.isochronicity",
                   "repro.analysis.data_consistency", "repro.exec"),
}
COLD_IMPORT_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, env: dict) -> tuple:
    """Set ``workload`` up; returns ``(calibrated s, wall s)``.

    Set-up is a new interpreter importing the workload's modules (the
    median of several), then ``workload.prepare()``, each calibrated by
    the speed readings just before and after it.  This process then imports the modules
    too, outside the timing, so no window pays for an import.
    """
    from perfbench.workloads import Window

    window = Window()

    def timed(operation) -> None:
        # Set-up runs other processes, so the speed is read between
        # steps, not while they run.
        window.speed.tick()
        window.run_op(operation)

    if workload.name in IMPORTS:
        statement = "import " + ", ".join(IMPORTS[workload.name])
        for _ in range(COLD_IMPORT_REPEATS):
            timed(lambda: subprocess.run(
                [sys.executable, "-c", statement], cwd=ROOT, env=env, check=True))
        for module in IMPORTS[workload.name]:
            importlib.import_module(module)
    timed(workload.prepare)
    window.speed.tick()
    calibrated = window.finish()
    walls = [wall for wall, _, _ in window.ops]
    imports = calibrated[:-1]
    import_s = statistics.median(imports) if imports else 0.0
    import_wall_s = statistics.median(walls[:-1]) if imports else 0.0
    return import_s + calibrated[-1], import_wall_s + walls[-1]


def make_workload(name: str, seed: int, workdir: Path):
    from perfbench.serveload import ServeMixed
    from perfbench.workloads import FuzzBlind, SuiteCold, VerifyWarm

    if name == "serve_mixed":
        return ServeMixed(seed, workdir, ROOT, dict(os.environ))
    return {"suite_cold": SuiteCold, "verify_warm": VerifyWarm,
            "fuzz_blind": FuzzBlind}[name](seed, workdir)


def end_to_end(window, setup_s: float) -> tuple:
    """The end-to-end metric values and the latency summary."""
    from perfbench.percentiles import summarize

    latency = summarize([s * 1e3 for s in window.latencies])
    values = {
        "ops_per_s": window.attempted / window.elapsed,
        "op_p50_ms": latency["p50"],
        "op_tail_ms": latency["tail"],
        "peak_rss_mb": window.details["peak_rss_mb"],
        "setup_s": setup_s,
    }
    return values, latency


def traced_repeat(workload, window):
    """Repeat ``window``'s exact work with spans on; returns the traced
    window and the tracer."""
    from perfbench.layers import Probes
    from perfbench.spans import Instrument, Tracer
    from perfbench.workloads import Budget
    from repro.exec import executor_cache_stats

    tracer = Tracer()
    budget = Budget(units=window.units)
    if workload.name == "serve_mixed":
        workload.restart()
        workload.events_wanted = True
        traced = workload.measure(budget)
        workload.teardown()
        return traced, tracer, None
    before = executor_cache_stats()["compile"]
    with Instrument(tracer, Probes(tracer).table()):
        traced = workload.measure(budget)
    after = executor_cache_stats()["compile"]
    delta = {key: after[key] - before[key] for key in ("hits", "misses")}
    return traced, tracer, delta


def serve_spans(tracer, window) -> None:
    """Client-side span tree per served job: job > submit, wait, fetch;
    the worker's execution span from the job's event stream sits under
    wait."""
    events = window.details.get("events", {})
    for planned, timing in window.outputs:
        if timing.error is not None:
            continue
        job = tracer.add("serve.job", "serve", timing.due, timing.read,
                         index=planned.index, kind=planned.spec.kind,
                         reuse=planned.reuse, job_id=timing.job_id)
        tracer.add("serve.submit", "serve.submit", timing.sent, timing.acked, job)
        wait = tracer.add("serve.wait", "serve.wait", timing.acked, timing.done, job)
        tracer.add("serve.fetch", "serve.fetch", timing.done, timing.read, job)
        for event in events.get(timing.job_id, ()):
            if event.get("event") == "span" and event.get("name") == "serve.job":
                tracer.add("worker.serve.job", "serve.execute",
                           timing.done - event["seconds"], timing.done, wait)


def per_layer(workload, window, traced, tracer, compile_delta) -> dict:
    from perfbench.layers import layer_metrics
    from perfbench.serveload import serve_layer_metrics

    if workload.name == "serve_mixed":
        serve_spans(tracer, traced)
    values = layer_metrics(tracer, compile_delta)
    if workload.name == "serve_mixed":
        values.update(serve_layer_metrics(traced))
    if workload.name == "fuzz_blind":
        samples = traced.details["samples"]
        values["fuzz.valid_ratio"] = traced.details["valid"] / samples if samples else 0.0
    values["trace.overhead_s"] = traced.elapsed - window.elapsed
    values["trace.overhead_ratio"] = traced.elapsed / window.elapsed - 1.0
    return values


def _record_view(details: dict) -> dict:
    """A window's details for the record: counts and server counters,
    the generator's lateness as a summary, no raw event streams."""
    from perfbench.percentiles import summarize

    view = {key: value for key, value in details.items()
            if key not in ("stats", "events", "late_s")}
    if "late_s" in details:
        view["generator_late_ms"] = summarize([s * 1e3 for s in details["late_s"]])
    return view


def run_one_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.header import isolate_environment, make_header

    workdir = ROOT / ".perfbench-work" / f"{name}-{seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench-out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    cleared, knobs = isolate_environment(os.environ, workdir, ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    workload = None
    try:
        from perfbench.layers import Probes, per_layer_units, span_names
        from perfbench.spans import Tracer

        workload = make_workload(name, seed, workdir)
        setup_s, setup_wall_s = set_up(workload, dict(os.environ))

        from perfbench.workloads import Budget

        window = workload.measure(Budget(seconds=seconds))
        if "peak_rss_mb" not in window.details:
            # Read before the gates run, so their memory is not counted.
            window.details["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if name == "serve_mixed":
            workload.teardown()
        started = time.perf_counter()
        failures = workload.gate(window)
        gate_s = time.perf_counter() - started
        e2e, latency = end_to_end(window, setup_s)
        record_details = {"latency_ms": latency, "latency_of": workload.latency_of,
                          "unit": workload.unit,
                          "window_s": window.elapsed, "units": window.units,
                          "wall_s": window.wall_s,
                          "speed_readings": len(window.speed.readings),
                          "setup_wall_s": setup_wall_s,
                          "gate_s": gate_s, "window": _record_view(window.details)}
        if trace:
            traced, tracer, compile_delta = traced_repeat(workload, window)
            if workload.fingerprint(traced) != workload.fingerprint(window):
                failures.append(("trace", "outputs changed under tracing"))
            metrics = per_layer(workload, window, traced, tracer, compile_delta)
            units = per_layer_units()
            tracer.write(outdir / f"{name}-seed{seed}.spans.jsonl")
        else:
            metrics = e2e
            units = END_TO_END
        failed_ops = {key for key, _ in failures}
        attempted = window.attempted
        failed = min(len(failed_ops), attempted)
        header = make_header(
            root=ROOT, workload=name, seed=seed, seconds=seconds, trace=trace,
            params=workload.params(), layers=list(workload.layers),
            spans=span_names(Probes(Tracer()).table()),
            env_set=knobs, env_cleared=cleared,
        )
    finally:
        if workload is not None and name == "serve_mixed":
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    record = {
        "header": header,
        "result": result,
        "failed_ratio": failed / attempted,
        "failures": [f"{key}: {message}" for key, message in failures[:100]],
        "details": record_details,
    }
    (outdir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps({"header": header}, sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for key, unit in units.items():
        print(f"{key:36s} {metrics[key]:14.4f} {unit}")
    print(f"failed_ratio {record['failed_ratio']:.4f} "
          f"({failed} failed of {attempted} attempted; one = one {workload.unit})")
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one summary table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            status = 1
            sys.stderr.write(done.stderr[-4000:])
        if not lines:
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        if result is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, entry in result["metrics"].items():
            print(f"  {key:36s} {entry['value']:14.4f} {entry['unit']}")
    summary = {name: result for name, result in rows}
    print(json.dumps({"correct": status == 0 and all(
        r is not None and r["correct"] for r in summary.values()),
        "workloads": summary}, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program sources under {ROOT / 'src'}\n")
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # The script's own directory must not shadow top-level modules.
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != script_dir]
    raise SystemExit(main())
