"""The ``serve_mixed`` workload: an open loop against ``lif serve``.

The server runs as its own process (``python -m repro.cli serve``) with
the job journal on and a fresh result cache.  Jobs are due at a fixed
rate; each is submitted when due whatever the server is doing, and is
timed from its due time to the moment its result bytes are read, so a
stall also charges the jobs queued behind it.  How late the generator
itself ran is reported separately.

The job mix is a seeded shuffle of whole decks, each holding every
(reuse class, job kind, program) combination in a fixed share:

* ``repeat`` — exactly an earlier job's spec (a result-cache hit, or a
  coalesced in-flight job);
* ``reuse``  — an earlier fresh job's source with a new seed or new
  arguments (it executes on the worker's warm module);
* ``fresh``  — a suite program's source made unique by a trailing
  comment, so the worker compiles, repairs and executes it cold.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from perfbench.calibrate import Speedometer, calibrate_spans
from perfbench.workloads import Budget, Window

# The traffic is synthetic: there is no recorded ``lif serve`` traffic to
# replay.  Each choice below keeps runs steady or puts one serve path on
# the timed path; perfbench/README.md gives the measurements behind them.

#: The smallest suite programs, of similar cost per job kind: the worker
#: spends about 12 ms per job, so serve's own costs (HTTP, queueing,
#: dispatch, journal) are a large share of each latency, and the median
#: and the tail fall inside groups of like jobs rather than between them.
#: (``otdf`` is left out: ``verify`` jobs' random inputs index out of its
#: arrays.)
PROGRAMS = ("ofdf", "ofdt", "otdt")
KINDS = ("repair", "certify", "verify", "run")
#: Share of each reuse class, in cards per (kind, program) pair of a deck:
#: a quarter of the jobs take the result-cache path, a quarter the
#: warm-module path and half the cold path.
DECK = (("fresh", 2), ("reuse", 1), ("repeat", 1))
#: One deck holds every (reuse class, kind, program) combination in its share.
DECK_SIZE = sum(share for _, share in DECK) * len(KINDS) * len(PROGRAMS)

#: 300 jobs per 15 s window, enough for a p95 tail.  The pool is then
#: busy about an eighth of the time (``serve.pool_busy_ratio``), so
#: latency is service time plus light queueing, not a saturated queue
#: whose length follows the machine's speed; and jobs are 50 ms apart, so
#: the generator has room to read the speed between them.
RATE_PER_S = 20.0
WORKERS = 2
#: Tenants the jobs rotate over; the server's per-tenant rate limit is off.
TENANTS = 4
#: More client threads than jobs in flight, so no job waits for a thread.
CLIENT_THREADS = 32
#: The generator reads the speed before a job only if it has at least
#: twice this much idle time, so a reading never delays a job that is due.
READ_SPEED_IDLE_S = 0.02


@dataclass
class Planned:
    """One job of the schedule."""

    index: int
    due: float  # seconds after the window starts
    reuse: str  # fresh | reuse | repeat
    spec: object  # repro.serve.protocol.JobSpec


def due_times(count: int, rate: float) -> list:
    """Fixed-rate open loop: job ``i`` is due ``i / rate`` seconds in."""
    return [index / rate for index in range(count)]


def lateness(due: list, sent: list) -> list:
    """How late each job was sent relative to its due time (never < 0)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def _cards(rng: random.Random, count: int) -> list:
    """``count`` (reuse class, kind, program) cards from whole decks.

    A deck holds ``DECK_SIZE / len(KINDS) / len(PROGRAMS)`` cards of each
    (kind, program) pair in shuffled order.  The pair's cards take the
    classes of ``DECK`` in order of appearance, so its fresh jobs come
    before the jobs that reuse or repeat them and every run has the same
    job composition.
    """
    classes = [label for label, share in DECK for _ in range(share)]
    cards: list = []
    while len(cards) < count:
        deck = [(kind, program) for kind in KINDS for program in PROGRAMS
                for _ in classes]
        rng.shuffle(deck)
        dealt: dict = {}
        for pair in deck:
            position = dealt.get(pair, 0)
            dealt[pair] = position + 1
            cards.append((classes[position],) + pair)
    return cards[:count]


def make_schedule(seed: int, count: int, rate: float) -> list:
    """The seeded job schedule: ``count`` jobs due at ``rate`` per second.

    A ``repeat`` card repeats an earlier job of its kind and program; a
    ``reuse`` card takes an earlier fresh source of its program with a
    new seed and new arguments.
    """
    from repro.bench.suite import ArrayArg, get_benchmark
    from repro.serve.protocol import JobSpec

    rng = random.Random(seed)
    benches = {name: get_benchmark(name) for name in PROGRAMS}
    fresh: dict = {name: [] for name in PROGRAMS}
    issued: dict = {}
    schedule = []
    cards = _cards(rng, count)
    for index, ((label, kind, name), due) in enumerate(
            zip(cards, due_times(count, rate))):
        earlier = issued.setdefault((kind, name), [])
        if label == "repeat":
            spec = rng.choice(earlier)
        else:
            if label == "reuse":
                source = rng.choice(fresh[name]).source
            else:
                source = (benches[name].source()
                          + f"\n// perfbench job {seed}.{index}\n")
            bench = benches[name]
            array_size = max(a.size for a in bench.args if isinstance(a, ArrayArg))
            job_seed = rng.getrandbits(31)
            args = ()
            if kind == "run":
                args = tuple(
                    tuple(a) if isinstance(a, list) else a
                    for a in bench.make_inputs(1, seed=job_seed)[0]
                )
            spec = JobSpec(kind=kind, source=source, name=name, entry=bench.entry,
                           seed=job_seed, array_size=array_size, args=args,
                           tenant=f"t{index % TENANTS}")
            if label == "fresh":
                fresh[name].append(spec)
        earlier.append(spec)
        schedule.append(Planned(index, due, label, spec))
    return schedule


@dataclass
class JobTiming:
    """Client-side timestamps of one job (perf_counter seconds)."""

    due: float
    sent: float = 0.0
    acked: float = 0.0
    done: float = 0.0
    read: float = 0.0
    job_id: Optional[str] = None
    cached: bool = False
    blob: Optional[bytes] = None
    error: Optional[str] = None


class ServerProcess:
    """``lif serve`` as a child process with its own cache and journal."""

    def __init__(self, root: Path, workdir: Path, env: dict) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._log = None

    def start(self, timeout: float = 60.0) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        env = dict(self.env)
        env["REPRO_CACHE_DIR"] = str(self.workdir / "cache")
        env["PYTHONPATH"] = str(self.root / "src")
        log_path = self.workdir / "server.log"
        self._log = open(log_path, "wb")  # noqa: SIM115 - closed in stop()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(WORKERS),
             "--journal", str(self.workdir / "journal.jsonl")],
            cwd=self.root, env=env, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        marker = "listening on http://"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"lif serve exited early: {log_path.read_text()[-2000:]}"
                )
            text = log_path.read_text(errors="replace")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return
            time.sleep(0.02)
        raise RuntimeError("lif serve did not announce its port in time")

    def children(self) -> list:
        """Pids of the server's child processes (its pool workers)."""
        pids = []
        for task in Path(f"/proc/{self.proc.pid}/task").glob("*"):
            try:
                pids.extend(int(pid) for pid in (task / "children").read_text().split())
            except OSError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident size (VmHWM) of the server and its workers."""
        if self.proc is None:
            return 0.0
        total_kb = 0
        pids = [self.proc.pid] + self.children()
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, client=None) -> None:
        """Drain gracefully, then make sure the server and workers are gone."""
        if self.proc is None:
            return
        workers = self.children()
        if client is not None and self.proc.poll() is None:
            try:
                client.shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        for pid in workers:
            while time.monotonic() < deadline and Path(f"/proc/{pid}").exists():
                time.sleep(0.05)
        self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


class ServeMixed:
    """Open-loop fixed-rate job mix against a ``lif serve`` process."""

    name = "serve_mixed"
    unit = "served job"
    latency_of = "served job, due to result read"
    layers = ("serve",)

    def __init__(self, seed: int, workdir: Path, root: Path, env: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.env = env
        self.server: Optional[ServerProcess] = None
        self.servers_started = 0
        self.events_wanted = False

    def params(self) -> dict:
        return {"rate_per_s": RATE_PER_S, "loop": "open, fixed rate",
                "workers": WORKERS, "programs": list(PROGRAMS),
                "kinds": list(KINDS),
                "deck_cards_per_kind_program": dict(DECK),
                "deck_size": DECK_SIZE, "journal": True,
                "result_cache": True, "tenants": TENANTS,
                "client_threads": CLIENT_THREADS}

    def _client(self):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.server.port, timeout=120.0)

    def prepare(self) -> None:
        """Start a fresh server and warm both pool workers with one whole
        deck of jobs, so every job kind and program has run before the
        window and no window job pays a worker's first import."""
        self.servers_started += 1
        self.server = ServerProcess(
            self.root, self.workdir / f"server-{self.servers_started}", self.env
        )
        self.server.start()
        client = self._client()
        # A negative seed never equals a run's seed, so the warm-up
        # sources differ from every source of the window.
        warmups = [planned.spec for planned
                   in make_schedule(-1 - self.seed, DECK_SIZE, RATE_PER_S)]
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            accepted = list(pool.map(client.submit, warmups))
            for view in accepted:
                client.wait(view["job_id"], timeout=120)
        stats = client.stats()
        self.baseline_counters = stats["counters"]
        self.baseline_fsyncs = (stats.get("journal") or {}).get("fsyncs", 0)

    def restart(self) -> None:
        self.teardown()
        self.prepare()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop(self._client() if self.server.port else None)
            self.server = None

    def _run_job(self, client, planned: Planned, timing: JobTiming, origin: float):
        from repro.serve.client import ServeError

        timing.sent = time.perf_counter() - origin
        try:
            view = client.submit(planned.spec)
            timing.acked = time.perf_counter() - origin
            timing.job_id = view["job_id"]
            timing.cached = bool(view.get("cached"))
            if view.get("status") not in ("done", "failed"):
                view = client.wait(timing.job_id, timeout=120)
            timing.done = time.perf_counter() - origin
            if view.get("status") != "done":
                timing.error = f"job {timing.job_id} {view.get('status')}"
                return
            timing.blob = client.result_bytes(timing.job_id)
            timing.read = time.perf_counter() - origin
        except (ServeError, OSError) as exc:
            timing.error = f"{type(exc).__name__}: {exc}"

    def measure(self, budget: Budget) -> Window:
        count = (budget.units if budget.units is not None
                 else max(1, int(round(budget.seconds * RATE_PER_S))))
        schedule = make_schedule(self.seed, count, RATE_PER_S)
        client = self._client()
        timings = [JobTiming(due=p.due) for p in schedule]
        # The jobs run in other processes.  The generator reads the speed
        # (one short reference task) halfway through its idle time before
        # a job, and only when no job is in flight, so a reading neither
        # delays a job nor competes with one for the CPUs.
        speed = Speedometer(repeats=1)
        stamps = []

        def read_speed() -> None:
            speed.tick()
            stamps.append(time.perf_counter() - origin)

        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            origin = time.perf_counter()
            read_speed()
            futures = []
            for planned, timing in zip(schedule, timings):
                delay = planned.due - (time.perf_counter() - origin)
                if delay > 2 * READ_SPEED_IDLE_S:
                    time.sleep(delay / 2)
                    if all(future.done() for future in futures):
                        read_speed()
                    delay = planned.due - (time.perf_counter() - origin)
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(self._run_job, client, planned,
                                           timing, origin))
            for future in futures:
                future.result()
        read_speed()
        ended = max(t.read or t.done or t.acked or t.sent for t in timings)
        # elapsed stays wall time: it is the schedule's length at a fixed rate.
        window = Window(elapsed=ended, units=count, attempted=count, speed=speed,
                        wall_s=ended)
        latencies = [self.latency(t, ended) for t in timings]
        window.latencies = calibrate_spans(
            [(t.due, t.due + wall) for t, wall in zip(timings, latencies)],
            stamps, speed.readings)
        factor = sum(window.latencies) / sum(latencies)
        window.outputs = list(zip(schedule, timings))
        stats = client.stats()
        window.details = {
            "jobs": count,
            "rate_per_s": RATE_PER_S,
            "peak_rss_mb": self.server.peak_rss_mb(),
            "stats": stats,
            "counters": _counter_delta(stats["counters"], self.baseline_counters),
            "journal_fsyncs": ((stats.get("journal") or {}).get("fsyncs", 0)
                               - self.baseline_fsyncs),
            "late_s": lateness([t.due for t in timings], [t.sent for t in timings]),
            # Summed calibrated over summed wall latency.
            "speed_factor": factor,
            "classes": {label: sum(1 for p in schedule if p.reuse == label)
                        for label, _ in DECK},
        }
        if self.events_wanted:
            window.details["events"] = self._fetch_events(client, timings)
        return window

    @staticmethod
    def latency(timing: JobTiming, window_end: float) -> float:
        """Due time to result bytes read, wall seconds; a failed or
        refused job counts as waiting until the window ended."""
        return (timing.read if timing.error is None else window_end) - timing.due

    @staticmethod
    def _fetch_events(client, timings) -> dict:
        """``job_id -> [event]`` for every job a worker executed."""
        executed = sorted({t.job_id for t in timings
                           if t.job_id and not t.cached and t.error is None})
        with ThreadPoolExecutor(max_workers=8) as pool:
            streams = pool.map(lambda job_id: list(client.events(job_id, timeout=60)),
                               executed)
            return dict(zip(executed, streams))

    def gate(self, window: Window) -> list:
        """Served bytes equal a direct ``execute_job``; nothing lost or
        executed twice."""
        from repro.serve.jobs import canonical_result_bytes, execute_job
        from repro.serve.protocol import job_key

        failures = []
        expected: dict = {}
        for planned, timing in window.outputs:
            if timing.error is not None:
                failures.append((planned.index, timing.error))
                continue
            key = job_key(planned.spec)
            if key not in expected:
                expected[key] = canonical_result_bytes(execute_job(planned.spec))
            if timing.blob != expected[key]:
                failures.append((planned.index, "served bytes differ"))
            elif "error" in json.loads(timing.blob):
                failures.append((planned.index, "pipeline error result"))
        counters = window.details["counters"]
        executed = counters.get("serve.completed", 0)
        answered = (executed + counters.get("serve.cache_served", 0)
                    + counters.get("serve.coalesced", 0))
        if counters.get("serve.submitted", 0) != len(window.outputs):
            failures.append(("server",
                f"server accepted {counters.get('serve.submitted', 0)} "
                f"of {len(window.outputs)} jobs"))
        if answered != len(window.outputs):
            failures.append(("server", f"{answered} answers for {len(window.outputs)} jobs"))
        if executed != len(expected):
            failures.append(("server",
                             f"{executed} executions for {len(expected)} distinct specs"))
        return failures

    @staticmethod
    def fingerprint(window: Window) -> list:
        return [timing.blob for _, timing in window.outputs]


def _counter_delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def serve_layer_metrics(window: Window) -> dict:
    """The ``serve.*`` and serve-side ``exec.*`` per-layer metrics.

    Worker execution time comes from the ``serve.job`` span in each
    executed job's event stream; queue time is the rest of the wait
    between acknowledgement and completion.  The pool's busy share is
    the summed execution time over the window's wall time times the
    worker count.  Executor compile time comes
    from the worker's ``exec.compile`` spans, and a ``run`` job whose
    stream has none ran on an already compiled module.
    """
    from perfbench.percentiles import percentile, summarize

    def p50_ms(samples: list) -> float:
        return percentile(samples, 50.0) * 1e3 if samples else 0.0

    timings = [timing for _, timing in window.outputs if timing.error is None]
    kinds = {timing.job_id: planned.spec.kind for planned, timing in window.outputs}
    events = window.details.get("events", {})
    execute, queue = [], []
    first_run = steady_run = 0.0
    runs = run_jobs = warm_run_jobs = 0
    busy_s = 0.0
    by_job = {t.job_id: t for t in timings if not t.cached}
    for job_id, stream in events.items():
        spans = [e for e in stream if e.get("event") == "span"]
        job_span = [e["seconds"] for e in spans if e.get("name") == "serve.job"]
        busy_s += sum(job_span)
        compile_s = sum(e["seconds"] for e in spans if e.get("name") == "exec.compile")
        run_s = sum(e["seconds"] for e in spans if e.get("name") == "serve.stage.run")
        if job_span and job_id in by_job:
            timing = by_job[job_id]
            execute.append(job_span[0])
            queue.append(max(0.0, (timing.done - timing.acked) - job_span[0]))
        first_run += compile_s
        if kinds.get(job_id) == "run":
            runs += 1
            run_jobs += 1
            if compile_s:
                first_run += run_s
            else:
                steady_run += run_s
                warm_run_jobs += 1
    counters = window.details["counters"]
    submitted = counters.get("serve.submitted", 0)
    rejected = sum(value for name, value in counters.items()
                   if name.startswith("serve.rejected"))
    return {
        "serve.submit_ms": p50_ms([t.acked - t.sent for t in timings]),
        "serve.queue_ms": p50_ms(queue),
        "serve.execute_ms": p50_ms(execute),
        "serve.fetch_ms": p50_ms([t.read - t.done for t in timings]),
        "serve.generator_late_ms": summarize(window.details["late_s"])["tail"] * 1e3,
        "serve.cache_hit_ratio": (counters.get("serve.cache_served", 0) / submitted
                                  if submitted else 0.0),
        "serve.rejected_ratio": (rejected / (submitted + rejected)
                                 if submitted + rejected else 0.0),
        "serve.retries": counters.get("serve.retries", 0),
        "serve.journal.fsyncs": window.details["journal_fsyncs"],
        "serve.pool_busy_ratio": busy_s / (window.elapsed * WORKERS),
        "exec.first_run_s": first_run,
        "exec.steady_run_s": steady_run,
        "exec.runs": runs,
        "exec.compile_cache.hit_ratio": (warm_run_jobs / run_jobs
                                         if run_jobs else 0.0),
    }

