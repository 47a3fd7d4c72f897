"""End-to-end tests of the serve subsystem over real sockets.

Most tests run the server in-process on a background thread with the
thread-mode pool (workers=0) so they stay fast; one test exercises the
real process pool with recycling, and one drives the installed ``lif
serve`` / ``lif submit`` CLI in subprocesses.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.knobs import KNOBS
from repro.serve import (
    JobSpec,
    canonical_result_bytes,
    execute_job,
    job_key,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import clear_warm_modules
from repro.serve.server import ServeConfig, ServerThread

GATE = """
uint gate(secret uint s, uint p) {
  uint y = 0;
  if (s > p) {
    y = 3;
  } else {
    y = 8;
  }
  return y;
}
"""

LOOKUP = """
uint lookup(uint *t, secret uint i) {
  return t[i];
}
"""


def _variant(index):
    return JobSpec(
        kind="repair", source=GATE + f"// variant {index}\n", name=f"v{index}"
    )


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_warm_modules()
    yield tmp_path
    clear_warm_modules()


def _thread_server(**overrides):
    defaults = dict(port=0, workers=0)
    defaults.update(overrides)
    return ServerThread(ServeConfig.from_env(**defaults))


def test_served_results_are_byte_identical_to_direct_api(isolated_cache):
    specs = [
        JobSpec(kind="repair", source=GATE, name="gate"),
        JobSpec(kind="verify", source=GATE, name="gate", entry="gate",
                runs=3, seed=5, array_size=4),
        JobSpec(kind="certify", source=LOOKUP, name="lookup"),
        JobSpec(kind="run", source=GATE, name="gate", entry="gate",
                args=(12, 7)),
    ]
    direct = [canonical_result_bytes(execute_job(s)) for s in specs]
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        job_ids = [client.submit(s)["job_id"] for s in specs]
        for jid, expected in zip(job_ids, direct):
            assert client.wait(jid, timeout=120)["status"] == "done"
            assert client.result_bytes(jid) == expected


def test_concurrent_mix_with_duplicate_submissions(isolated_cache):
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        results = {}

        def submit_and_wait(index):
            spec = _variant(index % 4)  # 12 submissions, 4 distinct keys
            accepted = client.submit_retrying(spec)
            if accepted.get("cached"):
                results[index] = canonical_result_bytes(accepted["result"])
                return
            client.wait(accepted["job_id"], timeout=120)
            results[index] = client.result_bytes(accepted["job_id"])

        threads = [
            threading.Thread(target=submit_and_wait, args=(index,))
            for index in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        stats = client.stats()

    assert len(results) == 12
    for index, blob in results.items():
        assert blob == results[index % 4]
    counters = stats["counters"]
    # 4 distinct keys: at most 4 executions; the other 8 submissions were
    # answered by the result cache or coalesced onto an in-flight job.
    assert counters.get("serve.completed", 0) <= 4
    assert (
        counters.get("serve.cache_served", 0)
        + counters.get("serve.coalesced", 0)
        >= 8
    )


def test_duplicate_after_completion_is_a_cache_hit(isolated_cache):
    spec = JobSpec(kind="repair", source=GATE, name="gate")
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        first = client.submit(spec)
        assert first["cached"] is False
        client.wait(first["job_id"], timeout=120)
        second = client.submit(spec)
        assert second["cached"] is True
        assert second["key"] == first["key"] == job_key(spec)
        assert canonical_result_bytes(second["result"]) == \
            client.result_bytes(first["job_id"])
        shards = client.stats()["result_cache"]
        assert shards["entries"] >= 1
        assert shards["shard_width"] == 2


def test_result_cache_survives_server_restart(isolated_cache):
    spec = JobSpec(kind="repair", source=GATE, name="gate")
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        accepted = client.submit(spec)
        client.wait(accepted["job_id"], timeout=120)
        blob = client.result_bytes(accepted["job_id"])
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        again = client.submit(spec)
        assert again["cached"] is True
        assert canonical_result_bytes(again["result"]) == blob


def test_backpressure_429_with_retry_after(isolated_cache, monkeypatch):
    import repro.serve.pool as pool_mod

    release = threading.Event()
    real_job = pool_mod._thread_job

    def gated_job(payload, events_path):
        release.wait(timeout=120)
        return real_job(payload, events_path)

    monkeypatch.setattr(pool_mod, "_thread_job", gated_job)
    with _thread_server(queue_limit=2) as srv:
        client = ServeClient(srv.host, srv.port)
        first = client.submit(_variant(0))   # running (gated)
        second = client.submit(_variant(1))  # queued -> pending == 2
        with pytest.raises(ServeError) as excinfo:
            client.submit(_variant(2))
        rejected = excinfo.value
        assert rejected.status == 429
        assert rejected.payload["error"] == "backpressure"
        assert rejected.retry_after > 0
        release.set()
        # submit_retrying rides out the back-pressure and still succeeds
        final = client.submit_retrying(_variant(2), attempts=200)
        assert final.get("cached") or "job_id" in final
        for entry in (first, second):
            assert client.wait(entry["job_id"], timeout=120)["status"] == "done"


def test_per_tenant_rate_limit(isolated_cache):
    with _thread_server(tenant_rps=0.5) as srv:  # burst of 1 token
        client = ServeClient(srv.host, srv.port)
        seen = {"ok": 0, "limited": 0}
        for index in range(4):
            spec = JobSpec(kind="repair", source=GATE + f"// {index}\n",
                           name="gate", tenant="greedy")
            try:
                client.submit(spec)
                seen["ok"] += 1
            except ServeError as exc:
                assert exc.status == 429
                assert exc.payload["error"] == "rate_limited"
                seen["limited"] += 1
        assert seen["ok"] >= 1
        assert seen["limited"] >= 1
        # an unrelated tenant is not throttled by the greedy one
        other = JobSpec(kind="repair", source=GATE + "// other\n",
                        name="gate", tenant="polite")
        assert "job_id" in client.submit(other)


def test_event_stream_carries_lifecycle(isolated_cache):
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        accepted = client.submit(JobSpec(kind="repair", source=GATE,
                                         name="gate"))
        events = [e["event"] for e in client.events(accepted["job_id"],
                                                    timeout=120)]
    assert events[0] == "job.queued"
    assert "job.started" in events
    assert events[-1] == "job.done"


def test_graceful_drain_finishes_inflight_jobs(isolated_cache):
    import socket

    with _thread_server(drain_grace=60.0) as srv:
        client = ServeClient(srv.host, srv.port)
        accepted = [client.submit(_variant(i)) for i in range(5)]
        # Hold one connection open so the post-drain grace window stays
        # open deterministically while we collect results.
        holder = socket.create_connection((srv.host, srv.port))
        try:
            answer = client.shutdown()
            assert answer["status"] == "draining"
            # new submissions are refused while draining...
            with pytest.raises(ServeError) as excinfo:
                client.submit(_variant(99))
            assert excinfo.value.status == 503
            # ...but status/result endpoints keep answering, and every
            # in-flight job still completes.
            for entry in accepted:
                view = client.wait(entry["job_id"], timeout=120)
                assert view["status"] == "done"
                assert client.result_bytes(entry["job_id"])
            assert client.health()["status"] == "draining"
        finally:
            holder.close()


def test_unknown_job_and_endpoint(isolated_cache):
    with _thread_server() as srv:
        client = ServeClient(srv.host, srv.port)
        with pytest.raises(ServeError) as excinfo:
            client.status("j99999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "banana", "source": "x"})
        assert excinfo.value.status == 400


def test_process_pool_with_recycling(isolated_cache):
    config = ServeConfig.from_env(port=0, workers=2, recycle=2)
    with ServerThread(config) as srv:
        client = ServeClient(srv.host, srv.port)
        specs = [_variant(index) for index in range(6)]
        direct = [canonical_result_bytes(execute_job(s)) for s in specs]
        accepted = [client.submit(s) for s in specs]
        for entry, expected in zip(accepted, direct):
            assert client.wait(entry["job_id"], timeout=300)["status"] == "done"
            assert client.result_bytes(entry["job_id"]) == expected
        stats = client.stats()
        assert stats["pool"]["mode"] == "process"
        assert stats["pool"]["recycle_after_jobs"] == 2
        # worker-side obs spans stream into the per-job event file
        events = [e for e in client.events(accepted[0]["job_id"],
                                           timeout=120)]
        kinds = [e["event"] for e in events]
        assert "span" in kinds


REPO_ROOT = Path(__file__).resolve().parents[2]


def test_cli_serve_and_submit_subprocess(isolated_cache, tmp_path):
    source = tmp_path / "gate.mc"
    source.write_text(GATE)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_SERVE_PORT"] = "0"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "0",
         "--port", "0"],
        env=env, cwd=tmp_path, stderr=subprocess.PIPE, text=True,
    )
    try:
        # the announce line carries the ephemeral port
        line = server.stderr.readline()
        assert "listening on http://" in line, line
        port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        submit = subprocess.run(
            [sys.executable, "-m", "repro.cli", "submit", str(source),
             "-k", "repair", "--port", str(port)],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=120,
        )
        assert submit.returncode == 0, submit.stderr
        result = json.loads(submit.stdout)
        assert result["kind"] == "repair"
        assert "ctsel" in result["ir"]
        # byte-level agreement with the direct pipeline
        direct = execute_job(
            JobSpec(kind="repair", source=GATE, name="gate")
        )
        assert result == json.loads(canonical_result_bytes(direct))
        shutdown = ServeClient("127.0.0.1", port).shutdown()
        assert shutdown["status"] == "draining"
        server.wait(timeout=60)
        assert server.returncode == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)


def test_server_start_failure_surfaces(isolated_cache):
    with _thread_server() as srv:
        conflicting = ServerThread(
            ServeConfig.from_env(port=srv.port, workers=0)
        )
        with pytest.raises(RuntimeError):
            conflicting.start()


def test_stats_report_the_resolved_config(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_QUEUE", "64")
    monkeypatch.setenv("REPRO_SERVE_RETRIES", "1")
    with _thread_server(max_retries=5) as srv:
        config = ServeClient(srv.host, srv.port).stats()["config"]
    assert set(config) == {
        name for name in KNOBS if name.startswith("REPRO_SERVE_")
    }
    assert config["REPRO_SERVE_QUEUE"] == 64  # from the environment
    assert config["REPRO_SERVE_RETRIES"] == 5  # the flag beats it
    assert config["REPRO_SERVE_PORT"] == 0
    assert config["REPRO_SERVE_WORKERS"] == 0
    assert config["REPRO_SERVE_CLASSES"] == {}
    assert config["REPRO_SERVE_CACHE"] is True
