"""High-level convenience API tying the subsystems together.

These wrappers are what the examples and quickstart use; power users can
reach into the subpackages directly (``repro.core.repair`` exposes every
knob of the transformation).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.module import Module


def compile_minic(
    source: str,
    name: str = "module",
    unroll: bool = True,
) -> Module:
    """Compile MiniC source text to an IR module.

    When ``unroll`` is true (the default), bounded loops are fully unrolled
    and the result is validated to be acyclic — the preprocessing the repair
    pass requires (paper Section III-A).
    """
    from repro.frontend import compile_source

    return compile_source(source, name=name, unroll=unroll)


def repair_module(
    module: Module,
    sizes: Optional[dict[str, dict[str, object]]] = None,
) -> Module:
    """Apply the paper's memory-safe isochronification to a whole module.

    Returns a new module; the input is not mutated.  ``sizes`` optionally
    provides manual memory contracts: ``{function: {pointer_param: length}}``
    where length is an int or the name of an integer parameter.  Contracts
    that are not given are inferred with the array-size analysis; pointers
    whose size cannot be inferred get the contract 0, which preserves
    operation invariance and memory safety but forfeits data invariance
    (paper Section III-C2).
    """
    from repro.core.repair import RepairOptions, repair_module as _repair

    options = RepairOptions(manual_sizes=sizes or {})
    return _repair(module, options)


def optimize_module(module: Module, level: int = 1) -> Module:
    """Run the -O1 stand-in cleanup pipeline; returns a new module."""
    from repro.opt.pipeline import optimize

    return optimize(module, level=level)


def run_function(
    module: Module,
    name: str,
    args: Sequence[object],
    trace: bool = False,
    backend: Optional[str] = None,
):
    """Execute ``@name`` with Python arguments (ints, or lists for arrays).

    Returns the integer result; with ``trace=True`` returns an
    :class:`repro.exec.interpreter.ExecutionResult` carrying the instruction
    and memory traces plus the simulated cycle count.  ``backend`` selects
    the execution engine (one of :data:`repro.exec.backend.BACKENDS`; the
    default comes from :func:`repro.exec.backend.default_backend`).
    """
    from repro.exec.backend import make_executor

    executor = make_executor(module, backend=backend, record_trace=trace)
    result = executor.run(name, list(args))
    return result if trace else result.value


def build_suite(
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
):
    """Build benchmark artifacts in parallel, through the on-disk cache.

    Returns a list of :class:`repro.bench.runner.BenchArtifacts` in suite
    order.  ``jobs`` defaults to ``REPRO_JOBS`` or the CPU count; the cache
    location honours ``REPRO_CACHE_DIR`` (and ``REPRO_CACHE=0`` disables
    it).  See ``docs/PIPELINE.md``.
    """
    from repro.bench.runner import build_suite as _build_suite

    return _build_suite(names, jobs=jobs)


def verify_suite(
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    runs: int = 4,
):
    """Verify Covenant 1 across benchmarks in parallel; ``{name: report}``."""
    from repro.verify.suite import verify_suite as _verify_suite

    return _verify_suite(names, jobs=jobs, runs=runs)


def generate_results_book(
    names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    runs: int = 4,
    verify: bool = True,
) -> str:
    """Render the deterministic results book (what ``lif report`` writes).

    Builds (or loads from the artifact cache) the requested benchmarks,
    optionally verifies Covenant 1 across them, and returns the
    ``docs/RESULTS.md`` markdown.  See ``docs/OBSERVABILITY.md``.
    """
    from repro.bench.runner import build_suite
    from repro.obs.report import load_bench_records, render_results

    artifacts = build_suite(names, jobs=jobs)
    reports = None
    if verify:
        from repro.verify.suite import verify_suite as _verify

        reports = _verify(names, jobs=jobs, runs=runs)
    return render_results(artifacts, reports, load_bench_records())


def certify_constant_time(
    module: Module,
    entry: Optional[str] = None,
):
    """Statically certify ``module`` (or just ``entry`` and its callees).

    Runs the interprocedural taint analysis and returns a
    :class:`repro.statics.certifier.CertificationReport` with per-function
    ``CERTIFIED_CONSTANT_TIME`` / ``RESIDUAL_LEAK`` verdicts and anchored
    diagnostics.  Unlike :func:`check_isochronous` this covers *every*
    input, at the cost of conservatism.  See ``docs/STATIC_ANALYSIS.md``.
    """
    from repro.statics.certifier import certify_entry, certify_module

    if entry is not None:
        return certify_entry(module, entry)
    return certify_module(module)


def certify(
    module: Module,
    entry: Optional[str] = None,
    channels=None,
    arg_sizes: Optional[dict] = None,
):
    """Multi-channel static certification (time, cache, power).

    Returns a :class:`repro.statics.certifier.CertificationMatrix` holding
    one per-function verdict report per requested channel.  ``channels``
    accepts an iterable or a comma-separated string (default: all three);
    ``arg_sizes`` maps entry pointer-parameter names to array lengths so
    the abstract cache gets concrete region bases.
    """
    from repro.statics.certifier import certify_matrix

    return certify_matrix(
        module, entry=entry, channels=channels, arg_sizes=arg_sizes
    )


def lint_module(module: Module, channels=None) -> list:
    """Every static finding for ``module``: IR well-formedness plus the
    certifiers' leak diagnostics across the requested channels (default
    all of time/cache/power), sorted most severe first (what ``lif lint``
    prints)."""
    from repro.ir.validate import diagnose_module
    from repro.statics.certifier import certify_matrix
    from repro.statics.diagnostics import sort_diagnostics

    matrix = certify_matrix(module, channels=channels)
    return sort_diagnostics(
        list(diagnose_module(module)) + matrix.diagnostics()
    )


def fuzz(
    seed: int = 0,
    iterations: int = 200,
    jobs: Optional[int] = None,
    minimize: bool = True,
    store: bool = False,
    corpus_dir=None,
    mutate: bool = False,
    cov: bool = False,
    checkpoint=None,
    resume: bool = False,
    shards: int = 1,
):
    """Run a differential fuzz campaign (what ``lif fuzz`` runs).

    Generates seeded MiniC and IR samples, cross-checks every oracle pair
    (repair semantics, backend agreement, isochronicity, static vs dynamic
    verdicts, optimizer sanitization), minimizes any disagreement, and —
    with ``store=True`` — writes reduced reproducers into the corpus.

    ``mutate=True`` switches to the coverage-guided campaign (mutations of
    coverage-novel corpus parents); ``cov=True`` tracks coverage without
    mutating.  ``checkpoint``/``resume``/``shards`` journal the campaign
    to disk and resume it byte-deterministically after a kill (see
    :mod:`repro.fuzz.campaign`).

    Returns a :class:`repro.fuzz.engine.FuzzReport` (blind mode) or a
    :class:`repro.fuzz.campaign.CampaignReport` (guided/checkpointed).
    """
    if mutate or cov or checkpoint or resume or shards > 1:
        from repro.fuzz.campaign import CampaignOptions, run_campaign

        return run_campaign(
            CampaignOptions(
                seed=seed,
                iterations=iterations,
                mutate=mutate,
                minimize=minimize,
                jobs=jobs,
                shards=shards,
                checkpoint_dir=checkpoint,
            ),
            resume=resume,
            store=store,
            corpus_dir=corpus_dir,
        )
    from repro.fuzz.engine import run_fuzz

    return run_fuzz(
        seed=seed,
        iterations=iterations,
        jobs=jobs,
        minimize=minimize,
        store=store,
        corpus_dir=corpus_dir,
    )


def serve(
    host: Optional[str] = None,
    port: Optional[int] = None,
    workers: Optional[int] = None,
    recycle: Optional[int] = None,
    queue_limit: Optional[int] = None,
    tenant_rps: Optional[float] = None,
    use_cache: bool = True,
    journal: Optional[str] = None,
    classes: Optional[str] = None,
    retries: Optional[int] = None,
) -> int:
    """Run the repair service until drained (what ``lif serve`` runs).

    Starts the warm worker pool and the local HTTP/JSONL front end and
    blocks until a graceful shutdown (``POST /v1/shutdown`` or SIGINT).
    ``journal`` enables the crash-replay ledger, ``classes`` sets
    priority-class weights (``"gold=4,normal=1"``) and ``retries``
    bounds re-dispatches after a worker death.  Unset arguments fall
    back to their ``REPRO_SERVE_*`` environment knobs.  For the
    horizontally sharded deployment use ``lif serve --shards N``
    (:mod:`repro.serve.router`).  See ``docs/SERVE.md``.
    """
    from repro.serve.server import ServeConfig, parse_class_weights, run_server

    config = ServeConfig.from_env(
        host=host,
        port=port,
        workers=workers,
        recycle=recycle,
        queue_limit=queue_limit,
        tenant_rps=tenant_rps,
        use_cache=None if use_cache else False,
        journal_path=journal,
        class_weights=(
            parse_class_weights(classes) if classes is not None else None
        ),
        max_retries=retries,
    )
    return run_server(config)


def submit_job(
    kind: str,
    source: str,
    name: str = "job",
    entry: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    timeout: float = 600.0,
    **options,
) -> dict:
    """Submit one job to a running ``lif serve`` and block for its result.

    ``kind`` is ``"repair"``, ``"verify"``, ``"certify"`` or ``"run"``;
    ``options`` forwards the remaining :class:`repro.serve.protocol.JobSpec`
    fields (``optimize``, ``runs``, ``seed``, ``array_size``, ``args``,
    ``backend``, ``tenant``).  Returns the deterministic result dict —
    byte-identical to what :func:`repro.serve.jobs.execute_job` computes
    directly.
    """
    import json

    from repro.serve.client import ServeClient
    from repro.serve.protocol import JobSpec

    spec = JobSpec(kind=kind, source=source, name=name, entry=entry,
                   **options)
    client = ServeClient(host, port, timeout=timeout)
    accepted = client.submit_retrying(spec)
    if accepted.get("cached"):
        return accepted["result"]
    view = client.wait(accepted["job_id"], timeout=timeout)
    if view["status"] != "done":
        raise RuntimeError(f"job failed in transport: {view.get('error')}")
    return json.loads(client.result_bytes(accepted["job_id"]))


def check_isochronous(
    module: Module,
    name: str,
    inputs: Sequence[Sequence[object]],
    backend: Optional[str] = None,
):
    """Check operation/data invariance of ``@name`` across the given inputs.

    Returns an :class:`repro.verify.isochronicity.InvarianceReport`.
    """
    from repro.verify.isochronicity import check_invariance

    return check_invariance(module, name, inputs, backend=backend)
