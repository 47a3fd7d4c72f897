"""The in-process workloads: ``suite_cold``, ``verify_warm``, ``fuzz_blind``.

Each workload has the same shape:

* ``prepare()`` — set-up a user also pays (generating inputs, filling
  the artifact store); timed into ``setup_s``;
* ``measure(budget)`` — one measured window, returning a :class:`Window`;
  ``budget`` is either a number of seconds or, for the traced repeat of a
  window, the exact work of an earlier window (``Budget.units``);
* ``gate(window)`` — the correctness checks, run outside any timing and
  outside tracing; returns ``(operation, message)`` pairs, one per failed check.

The serve workload lives in :mod:`perfbench.serveload` and has the same
shape.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.calibrate import Speedometer, calibrate

#: Spacing of sample seeds, as in ``lif fuzz``.
FUZZ_SEED_STRIDE = 1_000_003

#: Build processes that fill ``verify_warm``'s store during set-up.
FILL_JOBS = 2


@dataclass
class Budget:
    """Measure for ``seconds`` or repeat exactly ``units`` (a prior
    window's work, used by the traced repeat)."""

    seconds: Optional[float] = None
    units: Optional[int] = None


@dataclass
class Window:
    """What one measured window did."""

    #: Seconds per latency sample: one per pass for the suite workloads
    #: (what a ``lif suite`` user waits for), one per sample or job else.
    latencies: list = field(default_factory=list)
    #: Operations attempted: benchmarks, fuzz samples or served jobs.
    attempted: int = 0
    #: Calibrated time of the window (see :mod:`perfbench.calibrate`).
    elapsed: float = 0.0
    #: Work units done (passes, samples or jobs), for a traced repeat.
    units: int = 0
    #: Per-operation outputs, compared between the plain and traced windows.
    outputs: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    #: Reads the machine's speed while the operations run.
    speed: Speedometer = field(default_factory=Speedometer)
    #: ``(wall s, first, last)`` per operation run through :meth:`run_op`:
    #: its wall time less the time spent reading the speed during it, and
    #: the indices of the speed readings just before and just after it.
    ops: list = field(default_factory=list)
    #: Summed wall time of the operations.
    wall_s: float = 0.0

    def run_op(self, operation):
        """Run one timed operation; call inside ``speed.sampling()``."""
        first = len(self.speed.readings) - 1
        spent = self.speed.spent_s
        started = time.perf_counter()
        result = operation()
        wall = time.perf_counter() - started - (self.speed.spent_s - spent)
        self.ops.append((wall, first, len(self.speed.readings)))
        return result

    def finish(self) -> list:
        """Set ``wall_s`` and ``elapsed`` after sampling has ended, and
        return each operation's calibrated seconds."""
        calibrated = calibrate(self.ops, self.speed.readings)
        self.wall_s = sum(wall for wall, _, _ in self.ops)
        self.elapsed = sum(calibrated)
        return calibrated


def _run_passes(budget: Budget, pass_s: float, one_pass, window: Window) -> None:
    """Run whole passes: ``budget.units`` of them, or for a time budget
    one per ``pass_s`` seconds of it, at least one.  A pass's latency
    is the calibrated time of the operations it ran through
    :meth:`Window.run_op`.

    The count follows from the budget alone, never from how fast a pass
    ran, so every commit and every seed does the same work and keeps the
    same outputs in memory.  Garbage left by set-up is collected first,
    outside the timing, so a pass does not pay for it.
    """
    passes = (budget.units if budget.units is not None
              else max(1, int(budget.seconds // pass_s)))
    gc.collect()
    bounds = []
    with window.speed.sampling():
        for _ in range(passes):
            first = len(window.ops)
            one_pass()
            bounds.append((first, len(window.ops)))
            window.units += 1
    calibrated = window.finish()
    window.latencies = [sum(calibrated[a:b]) for a, b in bounds]
    window.attempted = len(window.outputs)


def _outputs(executor, entry: str, inputs: list) -> list:
    """What Theorem 1 compares: return value, array contents (contract
    length arguments are plain ints, so arrays line up), globals."""
    outputs = []
    for args in inputs:
        result = executor.run(entry, [list(a) if isinstance(a, list) else a
                                      for a in args])
        outputs.append((result.value, [a for a in result.arrays if a is not None],
                        result.global_state))
    return outputs


class SuiteCold:
    """Serial in-process cold build of the 24 suite benchmarks, each pass
    into a new empty artifact store (``lif suite --no-cache -j 1``)."""

    name = "suite_cold"
    unit = "benchmark built"
    latency_of = "suite pass"
    #: Nominal pass length (2-CPU x86-64 VM): one pass per this many
    #: seconds of the time budget.
    pass_s = 10.0
    layers = ("frontend", "ir.validate", "transforms.preprocess", "core.repair",
              "baseline.sce", "opt", "statics.certify", "exec.check", "ir.print",
              "artifacts.save")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.store_count = 0

    def params(self) -> dict:
        return {"benchmarks": len(self.benches), "check_inputs": 4,
                "jobs": 1, "order": "suite order", "pass_s": self.pass_s,
                "store": "new empty ArtifactStore per pass"}

    def prepare(self) -> None:
        from repro.artifacts import BuildRequest
        from repro.bench.runner import SCE_OPTIONS
        from repro.bench.suite import BENCHMARKS

        self.benches = {bench.name: bench for bench in BENCHMARKS}
        self.requests = {}
        for bench in BENCHMARKS:
            check_inputs = tuple(
                tuple(tuple(a) if isinstance(a, list) else a for a in args)
                for args in bench.make_inputs(4, seed=self.seed)
            )
            self.requests[bench.name] = BuildRequest(
                name=bench.name, source=bench.source(), entry=bench.entry,
                check_inputs=check_inputs,
                sce_inline_budget=SCE_OPTIONS.inline_budget,
            )

    def _fresh_store(self):
        from repro.artifacts import ArtifactStore

        self.store_count += 1
        root = self.workdir / f"suite-store-{self.store_count}"
        shutil.rmtree(root, ignore_errors=True)
        return ArtifactStore(root)

    def measure(self, budget: Budget) -> Window:
        from repro.artifacts import build_artifacts

        window = Window()

        def one_pass() -> None:
            store = self._fresh_store()
            for name in self.requests:
                built = window.run_op(
                    lambda: build_artifacts(self.requests[name], store=store))
                window.outputs.append((name, built))

        _run_passes(budget, self.pass_s, one_pass, window)
        return window

    def gate(self, window: Window) -> list:
        from repro.artifacts import parse_variant
        from repro.exec import make_executor
        from repro.verify import adapt_inputs

        failures = []
        for name, built in window.outputs:
            bench = self.benches[name]
            if built.cache_hit:
                failures.append((name, "served from a store that should be empty"))
            inputs = [[list(a) if isinstance(a, tuple) else a for a in args]
                      for args in self.requests[name].check_inputs]
            original = parse_variant(built, "original")
            expected = _outputs(make_executor(original, backend="interp",
                                              record_trace=False),
                                bench.entry, inputs)
            adapted = adapt_inputs(original, bench.entry, inputs)
            for variant in ("repaired", "repaired_o1"):
                executor = make_executor(parse_variant(built, variant),
                                         backend="interp", record_trace=False,
                                         strict_memory=False)
                if _outputs(executor, bench.entry, adapted) != expected:
                    failures.append((name, f"{variant} output differs from original"))
            outcome = ("error" if built.sce_error is not None
                       else "ok" if built.sce_correct else "incorrect")
            if outcome != bench.sce_expected:
                failures.append((
                    name, f"SC-Eliminator {outcome}, expected {bench.sce_expected}"
                ))
        return failures

    @staticmethod
    def fingerprint(window: Window) -> list:
        return [(name, built.ir, built.sce_correct, built.sce_error)
                for name, built in window.outputs]


class VerifyWarm:
    """Covenant 1 verification of every suite benchmark from an artifact
    store filled during set-up (``lif suite --verify`` on a warm cache),
    default backend, four seeded inputs per benchmark."""

    name = "verify_warm"
    unit = "benchmark verified"
    latency_of = "suite pass"
    #: Nominal pass length (2-CPU x86-64 VM), as for ``SuiteCold``.
    pass_s = 30.0
    layers = ("artifacts.load", "ir.parse", "verify", "exec")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def params(self) -> dict:
        from repro.exec import default_backend

        return {"benchmarks": len(self.benches), "inputs_per_benchmark": 4,
                "backend": default_backend(), "order": "suite order",
                "pass_s": self.pass_s,
                "store": f"filled by a {FILL_JOBS}-process cold build during set-up"}

    def prepare(self) -> None:
        from repro.artifacts import ArtifactStore, build_many
        from repro.bench.runner import build_request
        from repro.bench.suite import BENCHMARKS

        self.benches = {bench.name: bench for bench in BENCHMARKS}
        self.requests = {b.name: build_request(b) for b in BENCHMARKS}
        self.inputs = {b.name: b.make_inputs(4, seed=self.seed) for b in BENCHMARKS}
        self.store = ArtifactStore(self.workdir / "verify-store")
        build_many(self.requests.values(), jobs=FILL_JOBS, store=self.store)

    def _verify_one(self, name: str) -> tuple:
        """Load one benchmark's artifacts and check Covenant 1 on them."""
        from repro.artifacts import build_artifacts
        from repro.bench.runner import BenchArtifacts
        from repro.verify.covenant import check_covenant

        bench = self.benches[name]
        built = build_artifacts(self.requests[name], store=self.store)
        artifacts = BenchArtifacts(bench, built)
        report = check_covenant(
            artifacts.original, bench.entry, self.inputs[name],
            repaired=artifacts.repaired, repaired_o1=artifacts.repaired_o1,
        )
        return built, report

    def measure(self, budget: Budget) -> Window:
        window = Window()

        def one_pass() -> None:
            for name in self.requests:
                built, report = window.run_op(lambda: self._verify_one(name))
                window.outputs.append((name, built.cache_hit, report))

        _run_passes(budget, self.pass_s, one_pass, window)
        return window

    def gate(self, window: Window) -> list:
        failures = []
        for name, cache_hit, report in window.outputs:
            if not cache_hit:
                failures.append((name, "artifacts rebuilt instead of loaded"))
            if not report.holds:
                failures.append((name, f"Covenant 1 violated ({report})"))
        return failures

    @staticmethod
    def fingerprint(window: Window) -> list:
        return [(name, repr(report)) for name, _, report in window.outputs]


def fuzz_config():
    """The generator size used by ``fuzz_blind``: smaller than the
    ``lif fuzz`` default so a run holds enough samples for a steady
    median and tail (see README)."""
    from repro.fuzz.generators import FuzzConfig

    return FuzzConfig(max_helpers=1, max_stmts=2, max_block_depth=1,
                      max_expr_depth=2, max_loop_bound=2)


class FuzzBlind:
    """A seeded blind fuzz campaign, one sample after another through
    ``repro.fuzz.engine.run_one`` in this process."""

    name = "fuzz_blind"
    unit = "fuzz sample"
    latency_of = "fuzz sample"
    layers = ("fuzz.generate", "frontend", "core.repair", "opt",
              "statics.certify", "exec", "fuzz.oracles")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def params(self) -> dict:
        return {"config": self.config.as_dict(), "minimize": False,
                "sample_seed": f"{self.seed} * {FUZZ_SEED_STRIDE} + index"}

    def prepare(self) -> None:
        self.config = fuzz_config()

    def measure(self, budget: Budget) -> Window:
        from repro.fuzz.engine import run_one, sample_kind

        window = Window()
        started = time.perf_counter()
        index = 0
        with window.speed.sampling():
            while True:
                if budget.units is not None:
                    if index >= budget.units:
                        break
                elif time.perf_counter() - started >= budget.seconds:
                    break
                case_seed = self.seed * FUZZ_SEED_STRIDE + index
                kind = sample_kind(index, self.config)
                window.outputs.append(window.run_op(
                    lambda: run_one(case_seed, kind, self.config, minimize=False)))
                index += 1
        window.latencies = window.finish()
        window.units = window.attempted = index
        valid = sum(1 for r in window.outputs if "invalid" not in r)
        window.details = {
            "samples": index,
            "valid": valid,
            "ir_samples": sum(1 for r in window.outputs if r["kind"] == "ir"),
            "oracle_checks": sum(len(r["checked"]) for r in window.outputs),
        }
        return window

    def gate(self, window: Window) -> list:
        failures = []
        for result in window.outputs:
            if "invalid" in result:
                failures.append((result["seed"], f"invalid ({result['invalid']})"))
            elif result["failed"]:
                failures.append((result["seed"],
                                 f"oracles disagree {result['failed']}"))
        return failures

    @staticmethod
    def fingerprint(window: Window) -> list:
        return [(r["seed"], r["checked"], r["failed"], r.get("source"))
                for r in window.outputs]
