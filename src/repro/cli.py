"""``lif`` — command-line front end to the whole pipeline.

Named after the authors' public tool.  Subcommands:

* ``lif compile file.mc``        — MiniC → textual IR on stdout
* ``lif repair file.mc``         — compile, repair, print the isochronous IR
* ``lif run file.mc fn args``    — execute a function (arrays as 1,2,3 lists)
* ``lif check file.mc fn``       — detect leaks (sensitivity analysis) and
                                    classify data consistency
* ``lif verify file.mc fn``      — repair and verify Covenant 1 dynamically
* ``lif lint file.mc [fn]``      — static lint: IR well-formedness plus the
                                    constant-time certifier's verdicts
                                    (``--json`` for tooling, ``--suite`` to
                                    sweep the benchmark suite)
* ``lif suite [names...]``       — build (and verify) benchmark artifacts
* ``lif report``                 — metrics summary + the docs/RESULTS.md
                                    results book (``--check`` for CI)
* ``lif serve``                  — long-running repair service (warm worker
                                    pool + sharded result cache); see
                                    docs/SERVE.md
* ``lif submit file.mc``         — send one job to a running ``lif serve``
                                    and print its result
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import analyze_sensitivity, classify_data_consistency
from repro.core import RepairOptions, RepairStats, repair_module
from repro.exec import BACKENDS, make_executor, resolve_backend
from repro.frontend import compile_source
from repro.ir import module_to_str, parse_module
from repro.opt import optimize
from repro.verify import check_covenant


def _load(path: str, unroll_ir_loops: bool = False):
    text = Path(path).read_text()
    if path.endswith(".ir"):
        module = parse_module(text, name=Path(path).stem)
        if unroll_ir_loops:
            from repro.transforms import unroll_module_loops

            unroll_module_loops(module)
        return module
    return compile_source(text, name=Path(path).stem)


def _parse_arg(text: str):
    if "," in text:
        return [int(part, 0) for part in text.split(",") if part]
    return int(text, 0)


def _cmd_compile(args: argparse.Namespace) -> int:
    module = _load(args.file)
    if args.optimize:
        module = optimize(module)
    sys.stdout.write(module_to_str(module))
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    module = _load(args.file, unroll_ir_loops=args.unroll)
    stats = RepairStats()
    repaired = repair_module(module, RepairOptions(), stats=stats)
    if args.optimize:
        repaired = optimize(repaired)
    sys.stdout.write(module_to_str(repaired))
    sys.stderr.write(
        f"; repaired in {stats.seconds * 1000:.1f} ms: "
        f"{stats.original_instructions} -> {stats.repaired_instructions} "
        f"instructions ({stats.size_ratio:.2f}x)\n"
    )
    return 0


def _check_backend(name) -> "str | None":
    """Validate a ``--backend`` value, or exit 2 with the executor's own
    error (which lists the valid names) — same message everywhere."""
    try:
        resolve_backend(name)
    except ValueError as exc:
        sys.stderr.write(f"lif: {exc}\n")
        raise SystemExit(2)
    return name


def _cmd_run(args: argparse.Namespace) -> int:
    _check_backend(args.backend)
    module = _load(args.file)
    interpreter = make_executor(module, backend=args.backend)
    result = interpreter.run(args.function, [_parse_arg(a) for a in args.args])
    print(f"result = {result.value}")
    print(f"cycles = {result.cycles}")
    for index, contents in enumerate(result.arrays):
        if contents is not None:
            print(f"array arg {index}: {contents}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    module = _load(args.file)
    function = module.function(args.function)
    secrets = list(function.sensitive_params) or None
    report = analyze_sensitivity(module, args.function, secrets)
    print(f"sensitive parameters: {', '.join(report.sensitive_params) or '-'}")
    print(f"operation variant (timing leaks): {report.operation_variant}")
    for leak in report.leaky_branches:
        print(f"  leaky branch: {leak}")
    print(f"data variant (cache leaks): {report.data_variant}")
    for leak in report.leaky_indices:
        print(f"  leaky access: {leak}")
    consistency = classify_data_consistency(module, args.function, secrets)
    print(f"inherently data inconsistent: {consistency.inherently_inconsistent}")
    print(f"repair would be data invariant: {consistency.repaired_data_invariant}")
    return 0 if report.isochronous else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_backend(args.backend)
    module = _load(args.file)
    function = module.function(args.function)
    import random

    rng = random.Random(args.seed)
    inputs = []
    for _ in range(args.runs):
        call = []
        for param in function.params:
            if param.is_pointer:
                call.append([rng.getrandbits(16) for _ in range(args.array_size)])
            else:
                call.append(rng.getrandbits(16))
        inputs.append(call)
    report = check_covenant(module, args.function, inputs, backend=args.backend)
    print(f"semantics preserved : {report.semantics_preserved}")
    print(f"operation invariant : {report.operation_invariant}")
    print(f"data invariant      : {report.data_invariant} "
          f"(predicted {report.predicted_data_invariant})")
    print(f"memory safe         : {report.memory_safe}")
    print(f"covenant holds      : {report.holds}")
    return 0 if report.holds else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.ir.validate import diagnose_module
    from repro.statics.certifier import certify_matrix, normalize_channels
    from repro.statics.diagnostics import render_json, render_text

    try:
        channels = normalize_channels(args.channels)
    except ValueError as error:
        sys.stderr.write(f"lif lint: {error}\n")
        return 2
    if args.suite:
        return _lint_suite(args, channels)
    if not args.targets:
        sys.stderr.write("lif lint: expected a file (or --suite)\n")
        return 2
    path = args.targets[0]
    function = args.targets[1] if len(args.targets) > 1 else None
    module = _load(path)
    if args.repair:
        module = repair_module(module, RepairOptions(validate_output=False))
    diagnostics = list(diagnose_module(module))
    matrix = certify_matrix(module, entry=function, channels=channels)
    diagnostics.extend(matrix.diagnostics())
    channel_verdicts = matrix.verdicts()
    extra = {"channels": channel_verdicts}
    if matrix.time is not None:
        # Back-compat: the pre-matrix JSON exposed the time channel as
        # the flat ``verdicts`` map.
        extra["verdicts"] = channel_verdicts["time"]
    if args.json:
        print(render_json(diagnostics, module=module.name, **extra))
    else:
        print(render_text(diagnostics))
        names = sorted(
            {fn for per in channel_verdicts.values() for fn in per}
        )
        for name in names:
            parts = []
            for channel in matrix.channels:
                verdict = channel_verdicts[channel].get(name, "-")
                parts.append(f"{channel}={verdict}")
            suffix = ""
            if (
                matrix.time is not None
                and name in matrix.time.functions
                and matrix.time.functions[name].inherently_data_inconsistent
            ):
                suffix = " (inherently data-inconsistent)"
            print(f"@{name}: " + " ".join(parts) + suffix)
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _lint_suite(args: argparse.Namespace, channels) -> int:
    """Lint every benchmark's original + repaired variants.

    Fails (exit 1) when a repaired variant has an IR validation error, a
    genuine residual leak on any requested channel, or a residual leak in
    a benchmark whose metadata does not whitelist it as inherently
    data-inconsistent.
    """
    import json

    from repro.artifacts.build import parse_variant
    from repro.bench.runner import get_artifacts
    from repro.bench.suite import benchmark_names, get_benchmark
    from repro.ir.validate import diagnose_module
    from repro.statics.certifier import CertificationMatrix, certify_matrix
    from repro.statics.diagnostics import sort_diagnostics

    names = args.targets or benchmark_names()
    unknown = set(names) - set(benchmark_names())
    if unknown:
        sys.stderr.write(f"unknown benchmarks: {', '.join(sorted(unknown))}\n")
        return 2

    payload: dict = {}
    failures: list[str] = []
    for name in names:
        bench = get_benchmark(name)
        built = get_artifacts(name).built
        per_bench: dict = {}
        for variant in ("original", "repaired"):
            module = parse_variant(built, variant)
            cached = built.certification_matrix.get(variant)
            if cached is not None:
                matrix = CertificationMatrix.from_dict(cached)
            else:  # pre-matrix cache entry: compute in process
                matrix = certify_matrix(module, entry=built.entry)
            report = matrix.time
            diagnostics = sort_diagnostics(
                list(diagnose_module(module))
                + matrix.diagnostics(channels=channels)
            )
            channel_verdicts = {
                channel: verdict_map
                for channel, verdict_map in matrix.verdicts().items()
                if channel in channels
            }
            per_bench[variant] = {
                "verdicts": {
                    fn: certificate.verdict
                    for fn, certificate in report.functions.items()
                },
                "channels": channel_verdicts,
                "inherently_data_inconsistent": {
                    fn: certificate.inherently_data_inconsistent
                    for fn, certificate in report.functions.items()
                    if not certificate.certified
                },
                "diagnostics": [d.as_dict() for d in diagnostics],
            }
            if variant != "repaired":
                continue
            ir_errors = [
                d.rule
                for d in diagnostics
                if d.severity == "error" and d.rule.startswith("IR-")
            ]
            if ir_errors:
                failures.append(f"{name}: IR errors {sorted(set(ir_errors))}")
            if report.genuine_failures:
                failures.append(
                    f"{name}: genuine residual leak in "
                    f"{report.genuine_failures}"
                )
            elif report.residual_functions and not bench.inherently_inconsistent:
                failures.append(
                    f"{name}: residual leak in {report.residual_functions} "
                    "but benchmark is not whitelisted as inherently "
                    "data-inconsistent"
                )
            if "cache" in channels and matrix.cache is not None:
                cache = matrix.cache
                if cache.genuine_failures:
                    failures.append(
                        f"{name}: genuine cache leak in "
                        f"{cache.genuine_failures}"
                    )
                elif (
                    cache.residual_functions
                    and not bench.inherently_inconsistent
                ):
                    failures.append(
                        f"{name}: residual cache leak in "
                        f"{cache.residual_functions} but benchmark is not "
                        "whitelisted as inherently data-inconsistent"
                    )
            if "power" in channels and matrix.power is not None:
                power = matrix.power
                if power.genuine_failures:
                    failures.append(
                        f"{name}: genuine power imbalance in "
                        f"{power.genuine_failures}"
                    )
        payload[name] = per_bench

    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for name in names:
            for variant in ("original", "repaired"):
                entry = payload[name][variant]
                columns = []
                for channel in channels:
                    verdict_map = entry["channels"].get(channel, {})
                    residual = sorted(
                        fn
                        for fn, verdict in verdict_map.items()
                        if not verdict.startswith("CERTIFIED")
                    )
                    columns.append(
                        f"{channel}:"
                        + (",".join(residual) if residual else "ok")
                    )
                print(
                    f"{name:18s} {variant:9s} " + " ".join(columns)
                    + f" ({len(entry['diagnostics'])} diagnostics)"
                )
    for failure in failures:
        sys.stderr.write(f"lint failure: {failure}\n")
    return 1 if failures else 0


def _cmd_suite(args: argparse.Namespace) -> int:
    import os
    import time

    # Publish the cache and backend selection via the environment so pool
    # workers (which build their store/executors from it) agree with the
    # parent.
    if args.no_cache:
        os.environ["REPRO_CACHE"] = "0"
    elif args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    if args.backend is not None:
        _check_backend(args.backend)
        os.environ["REPRO_BACKEND"] = args.backend

    from repro.bench.runner import build_suite
    from repro.bench.suite import benchmark_names

    names = args.benchmarks or benchmark_names()
    unknown = set(names) - set(benchmark_names())
    if unknown:
        sys.stderr.write(f"unknown benchmarks: {', '.join(sorted(unknown))}\n")
        return 2

    started = time.perf_counter()
    artifacts = build_suite(names, jobs=args.jobs)
    elapsed = time.perf_counter() - started

    reports = {}
    if args.verify:
        from repro.verify.suite import verify_suite

        reports = verify_suite(names, jobs=args.jobs, runs=args.runs)

    hits = 0
    for entry in artifacts:
        hits += entry.cache_hit
        built = entry.built
        line = (
            f"{entry.bench.name:18s} sce={entry.sce_outcome:9s} "
            f"{'cached' if entry.cache_hit else f'built {sum(built.timings.values()):.2f}s'}"
        )
        if args.verify:
            report = reports[entry.bench.name]
            line += f" covenant={'ok' if report.holds else 'VIOLATED'}"
        print(line)
    print(
        f"{len(artifacts)} benchmarks in {elapsed:.2f}s "
        f"({hits} cached, jobs={args.jobs or 'auto'})"
    )

    from repro.obs import OBS

    if OBS.enabled:
        from repro.obs.report import metrics_summary

        summary = metrics_summary(artifacts)
        if summary:
            print(summary)

    if args.verify and not all(r.holds for r in reports.values()):
        return 1
    if args.expect_cached and hits < len(artifacts):
        sys.stderr.write(
            f"expected every artifact cached, got {hits}/{len(artifacts)}\n"
        )
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs import configure
    from repro.obs.report import run_report

    # The report is itself an observability consumer: turn the collector on
    # for this process (and, via the environment, for any pool workers it
    # forks) so cache and dispatch metrics show up in the summary.
    os.environ.setdefault("REPRO_TRACE", "1")
    configure()

    return run_report(
        names=args.benchmarks or None,
        jobs=args.jobs,
        runs=args.runs,
        verify=not args.no_verify,
        output=args.output,
        check=args.check,
        bench_dir=args.bench_dir,
    )


def _cmd_fuzz(args) -> int:
    from repro.fuzz.generators import FuzzConfig

    config = FuzzConfig(ir_fraction=args.ir_fraction)
    if args.resume and not args.checkpoint:
        print("lif fuzz: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    guided = (
        args.mutate or args.cov or args.checkpoint or args.shards > 1
    )
    if guided:
        from repro.fuzz.campaign import CampaignOptions, run_campaign

        report = run_campaign(
            CampaignOptions(
                seed=args.seed,
                iterations=args.iterations,
                mutate=args.mutate,
                minimize=not args.no_minimize,
                fuzz=config,
                shards=args.shards,
                jobs=args.jobs,
                checkpoint_dir=args.checkpoint,
            ),
            resume=args.resume,
            store=args.store,
            corpus_dir=args.corpus_dir,
        )
    else:
        from repro.fuzz.engine import run_fuzz

        report = run_fuzz(
            seed=args.seed,
            iterations=args.iterations,
            jobs=args.jobs,
            minimize=not args.no_minimize,
            config=config,
            corpus_dir=args.corpus_dir,
            store=args.store,
        )
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeConfig, parse_class_weights, run_server

    _check_backend(args.backend)
    if args.backend is not None:
        # Workers resolve the backend from the environment; publish the
        # flag so spawned processes agree with the parent.
        import os

        os.environ["REPRO_BACKEND"] = args.backend
    if args.shards and args.shards > 0:
        return _run_sharded(args)
    config = ServeConfig.from_env(
        host=args.host,
        port=args.port,
        workers=args.workers,
        recycle=args.recycle,
        queue_limit=args.queue_limit,
        tenant_rps=args.tenant_rps,
        use_cache=False if args.no_cache else None,
        journal_path=args.journal,
        class_weights=(
            parse_class_weights(args.classes)
            if args.classes is not None else None
        ),
        max_retries=args.retries,
    )

    def announce(server, host, port):
        pool = server.pool.stats()
        journal = " journal on," if server.journal is not None else ""
        sys.stderr.write(
            f"lif serve: listening on http://{host}:{port} "
            f"({pool['workers']} {pool['mode']} workers,{journal} "
            f"queue limit {server.config.queue_limit})\n"
        )

    return run_server(config, announce)


def _run_sharded(args: argparse.Namespace) -> int:
    """``lif serve --shards N``: spawn N shard processes, run the router."""
    import os

    from repro.knobs import knob
    from repro.serve.router import (
        RouterConfig,
        ShardSupervisor,
        run_router,
    )

    journal_dir = args.journal or knob("REPRO_SERVE_JOURNAL")
    if journal_dir:
        os.makedirs(journal_dir, exist_ok=True)
    supervisor = ShardSupervisor(
        count=args.shards,
        workers=args.workers,
        journal_dir=journal_dir,
    )
    sys.stderr.write(f"lif serve: starting {args.shards} shards...\n")
    shards = supervisor.start()
    for shard in shards:
        sys.stderr.write(
            f"lif serve: shard {shard.shard_id} at "
            f"http://{shard.host}:{shard.port}\n"
        )
    config = RouterConfig.from_env(host=args.host, port=args.port)

    def announce(router, host, port):
        sys.stderr.write(
            f"lif serve: router listening on http://{host}:{port} "
            f"({len(shards)} shards, consistent-hash routing)\n"
        )

    try:
        return run_router(config, shards, announce)
    finally:
        supervisor.stop()


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError
    from repro.serve.protocol import JobSpec, ProtocolError

    _check_backend(args.backend)
    try:
        spec = JobSpec(
            kind=args.kind,
            source=Path(args.file).read_text(),
            name=Path(args.file).stem,
            entry=args.function,
            optimize=args.optimize,
            runs=args.runs,
            seed=args.seed,
            array_size=args.array_size,
            args=tuple(_parse_arg(a) for a in args.args),
            backend=args.backend,
            tenant=args.tenant,
            priority=args.priority,
        )
        spec.to_payload()  # validate before touching the network
    except ProtocolError as exc:
        sys.stderr.write(f"lif submit: {exc}\n")
        return 2

    client = ServeClient(args.host, args.port)
    try:
        accepted = client.submit_retrying(spec)
        if accepted.get("cached"):
            print(json.dumps(accepted["result"], indent=1, sort_keys=True))
            return 0 if "error" not in accepted["result"] else 1
        job_id = accepted["job_id"]
        if args.follow:
            for event in client.events(job_id, timeout=args.timeout):
                sys.stderr.write(json.dumps(event, sort_keys=True) + "\n")
        view = client.wait(job_id, timeout=args.timeout)
        if view["status"] != "done":
            sys.stderr.write(f"lif submit: job failed: {view.get('error')}\n")
            return 1
        result = json.loads(client.result_bytes(job_id))
    except ServeError as exc:
        sys.stderr.write(f"lif submit: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(
            f"lif submit: cannot reach {args.host}:{args.port} ({exc}); "
            "is `lif serve` running?\n"
        )
        return 1
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0 if "error" not in result else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lif",
        description="Memory-safe elimination of side channels (CGO 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile MiniC to IR")
    p_compile.add_argument("file")
    p_compile.add_argument("-O", "--optimize", action="store_true")
    p_compile.set_defaults(func=_cmd_compile)

    p_repair = sub.add_parser("repair", help="isochronify a module")
    p_repair.add_argument("file")
    p_repair.add_argument("-O", "--optimize", action="store_true")
    p_repair.add_argument(
        "--unroll", action="store_true",
        help="fully unroll counted loops in .ir inputs before repair",
    )
    p_repair.set_defaults(func=_cmd_repair)

    p_run = sub.add_parser("run", help="execute a function")
    p_run.add_argument("file")
    p_run.add_argument("function")
    p_run.add_argument("args", nargs="*",
                       help="ints, or comma-separated lists for arrays")
    p_run.add_argument("--backend", default=None, metavar="NAME",
                       help=f"execution engine: {', '.join(BACKENDS)} "
                            "(default: compiled, or $REPRO_BACKEND)")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="detect side-channel leaks")
    p_check.add_argument("file")
    p_check.add_argument("function")
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="repair and verify Covenant 1")
    p_verify.add_argument("file")
    p_verify.add_argument("function")
    p_verify.add_argument("--runs", type=int, default=4)
    p_verify.add_argument("--array-size", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--backend", default=None, metavar="NAME",
                          help=f"execution engine: {', '.join(BACKENDS)} "
                               "(default: compiled, or $REPRO_BACKEND)")
    p_verify.set_defaults(func=_cmd_verify)

    p_lint = sub.add_parser(
        "lint",
        help="static lint: IR validation + constant-time certification",
    )
    p_lint.add_argument(
        "targets", nargs="*",
        help="FILE [FUNCTION], or benchmark names with --suite",
    )
    p_lint.add_argument("--suite", action="store_true",
                        help="lint benchmark artifacts (original + repaired) "
                             "instead of a file")
    p_lint.add_argument("--repair", action="store_true",
                        help="repair the module first and lint the result")
    p_lint.add_argument("--channels", default=None,
                        help="comma-separated side channels to certify "
                             "(time,cache,power; default all)")
    p_lint.add_argument("--json", action="store_true",
                        help="deterministic JSON output")
    p_lint.set_defaults(func=_cmd_lint)

    p_suite = sub.add_parser(
        "suite", help="build (and optionally verify) benchmark artifacts"
    )
    p_suite.add_argument("benchmarks", nargs="*",
                         help="benchmark names (default: all)")
    p_suite.add_argument("-j", "--jobs", type=int, default=None,
                         help="worker processes (default: $REPRO_JOBS or "
                              "cpu count)")
    p_suite.add_argument("--verify", action="store_true",
                         help="also verify Covenant 1 per benchmark")
    p_suite.add_argument("--runs", type=int, default=4,
                         help="verification inputs per benchmark")
    p_suite.add_argument("--no-cache", action="store_true",
                         help="bypass the artifact cache entirely")
    p_suite.add_argument("--cache-dir", default=None,
                         help="artifact cache root (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
    p_suite.add_argument("--expect-cached", action="store_true",
                         help="fail unless every artifact was a cache hit")
    p_suite.add_argument("--backend", default=None, metavar="NAME",
                         help=f"execution engine: {', '.join(BACKENDS)} "
                              "(published to workers via $REPRO_BACKEND)")
    p_suite.set_defaults(func=_cmd_suite)

    p_report = sub.add_parser(
        "report",
        help="aggregate suite metrics; write the docs/RESULTS.md results book",
    )
    p_report.add_argument("benchmarks", nargs="*",
                          help="benchmark names (default: all)")
    p_report.add_argument("-j", "--jobs", type=int, default=None,
                          help="worker processes (default: $REPRO_JOBS or "
                               "cpu count)")
    p_report.add_argument("--runs", type=int, default=4,
                          help="verification inputs per benchmark")
    p_report.add_argument("--no-verify", action="store_true",
                          help="skip the covenant section")
    p_report.add_argument("--output", default="docs/RESULTS.md",
                          help="results book path (default: docs/RESULTS.md)")
    p_report.add_argument("--bench-dir", default=".",
                          help="directory holding the BENCH_*.json records")
    p_report.add_argument("--check", action="store_true",
                          help="fail if the committed results book is stale "
                               "instead of rewriting it")
    p_report.set_defaults(func=_cmd_report)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs vs every oracle pair",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0); a (seed, iterations)"
                             " pair is byte-for-byte reproducible")
    p_fuzz.add_argument("-n", "--iterations", type=int, default=200,
                        help="samples to generate (default 200)")
    p_fuzz.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or "
                             "cpu count); results are merged in seed order, "
                             "so the output does not depend on this")
    p_fuzz.add_argument("--no-minimize", action="store_true",
                        help="store raw failing programs instead of shrinking "
                             "them first")
    p_fuzz.add_argument("--store", action="store_true",
                        help="write failing reproducers into the corpus "
                             "directory")
    p_fuzz.add_argument("--corpus-dir", default=None,
                        help="reproducer directory (default: tests/corpus)")
    p_fuzz.add_argument("--ir-fraction", type=int, default=4,
                        help="every Nth sample is an IR-level module "
                             "(0 = MiniC only; default 4)")
    p_fuzz.add_argument("--cov", action="store_true",
                        help="track pipeline coverage (branch edges + "
                             "rule/pass firings) per sample; implied by "
                             "--mutate")
    p_fuzz.add_argument("--mutate", action="store_true",
                        help="coverage-guided mode: mutate coverage-novel "
                             "corpus parents (splice/tweak/grow) instead of "
                             "sampling blind")
    p_fuzz.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="journal the campaign to DIR (identity record, "
                             "content-addressed sample blobs, per-slice "
                             "result checkpoints)")
    p_fuzz.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint DIR: completed "
                             "slices are replayed, missing ones re-run; "
                             "the merged result is byte-identical to an "
                             "uninterrupted run")
    p_fuzz.add_argument("--shards", type=int, default=1,
                        help="checkpoint slices per round (default 1); "
                             "like --jobs, has no effect on the output "
                             "bytes")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="long-running repair service (warm workers + result cache)",
    )
    p_serve.add_argument("--host", default=None,
                         help="bind address (default: $REPRO_SERVE_HOST or "
                              "127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port, 0 for ephemeral (default: "
                              "$REPRO_SERVE_PORT or 8765)")
    p_serve.add_argument("-w", "--workers", type=int, default=None,
                         help="worker processes; 0 runs jobs in-process "
                              "(default: $REPRO_SERVE_WORKERS or cpu count)")
    p_serve.add_argument("--recycle", type=int, default=None,
                         help="jobs per worker before it is replaced; 0 "
                              "never recycles (default: $REPRO_SERVE_RECYCLE "
                              "or 200)")
    p_serve.add_argument("--queue-limit", type=int, default=None,
                         help="max jobs in flight before 429 back-pressure "
                              "(default: $REPRO_SERVE_QUEUE or 512)")
    p_serve.add_argument("--tenant-rps", type=float, default=None,
                         help="per-tenant submissions/second, 0 = unlimited "
                              "(default: $REPRO_SERVE_TENANT_RPS or 0)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the sharded result cache")
    p_serve.add_argument("--shards", type=int, default=None, metavar="N",
                         help="run N shard processes behind a "
                              "consistent-hash router on --port "
                              "(default: single server)")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="append-only job journal for crash replay: "
                              "a file (single server) or a directory "
                              "(one journal per shard with --shards) "
                              "(default: $REPRO_SERVE_JOURNAL or off)")
    p_serve.add_argument("--classes", default=None, metavar="SPEC",
                         help="priority-class weights, e.g. "
                              "'gold=4,normal=1' (default: "
                              "$REPRO_SERVE_CLASSES or equal weights)")
    p_serve.add_argument("--retries", type=int, default=None,
                         help="re-dispatches after a worker death before "
                              "a job fails (default: $REPRO_SERVE_RETRIES "
                              "or 2)")
    p_serve.add_argument("--backend", default=None, metavar="NAME",
                         help=f"execution engine: {', '.join(BACKENDS)} "
                              "(published to workers via $REPRO_BACKEND)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="send one job to a running `lif serve`"
    )
    p_submit.add_argument("file", help="MiniC source file")
    p_submit.add_argument("-k", "--kind", choices=("repair", "verify",
                                                   "certify", "run"),
                          default="repair", help="job kind (default: repair)")
    p_submit.add_argument("-f", "--function", default=None,
                          help="entry function (required for verify/run)")
    p_submit.add_argument("args", nargs="*",
                          help="run-kind arguments: ints, or comma-separated "
                               "lists for arrays")
    p_submit.add_argument("-O", "--optimize", action="store_true")
    p_submit.add_argument("--runs", type=int, default=4)
    p_submit.add_argument("--array-size", type=int, default=8)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--backend", default=None, metavar="NAME",
                          help=f"execution engine: {', '.join(BACKENDS)}")
    p_submit.add_argument("--tenant", default="cli",
                          help="tenant id for rate limiting (default: cli)")
    p_submit.add_argument("--priority", default="normal",
                          help="priority class for weighted dispatch "
                               "(default: normal)")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8765)
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for the result")
    p_submit.add_argument("--follow", action="store_true",
                          help="stream the job's event log to stderr while "
                               "waiting")
    p_submit.set_defaults(func=_cmd_submit)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
