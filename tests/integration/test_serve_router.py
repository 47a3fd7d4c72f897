"""Integration tests of the consistent-hash shard router.

Two in-process shard servers (thread-mode pools) behind an in-process
router thread: routing, byte-identity through the extra hop, shard
affinity, per-shard draining, and failover to live shards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.knobs import KNOBS
from repro.serve import (
    JobSpec,
    canonical_result_bytes,
    execute_job,
    job_key,
)
from repro.serve.client import ServeClient
from repro.serve.jobs import clear_warm_modules
from repro.serve.router import RouterConfig, RouterThread, Shard
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


def _variant(index):
    return JobSpec(
        kind="repair", source=GATE + f"// route {index}\n", name=f"r{index}"
    )


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_warm_modules()
    yield tmp_path
    clear_warm_modules()


@pytest.fixture()
def fleet(isolated_cache):
    """Two thread-mode shards behind a router; yields (router, backends)."""
    backends = [
        ServerThread(ServeConfig.from_env(port=0, workers=0)).start()
        for _ in range(2)
    ]
    shards = [
        Shard(f"s{i}", backend.host, backend.port)
        for i, backend in enumerate(backends)
    ]
    router = RouterThread(RouterConfig(port=0, health_interval=0.2), shards)
    router.start()
    yield router, backends
    router.request_drain()
    router.join()
    for backend in backends:
        backend.request_drain()
        backend.join()


def test_jobs_route_complete_and_match_direct_api(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    accepted = {}
    for i in range(6):
        response = client.submit(_variant(i))
        assert response["job_id"].split(".")[0] in ("s0", "s1")
        accepted[i] = response["job_id"]
    for i, compound in accepted.items():
        view = client.wait(compound, timeout=120)
        assert view["status"] == "done"
        assert view["job_id"] == compound  # compound id echoed back
        blob = client.result_bytes(compound)
        direct = canonical_result_bytes(execute_job(_variant(i)))
        assert blob == direct


def test_identical_submissions_share_a_shard_and_coalesce(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    spec = _variant(42)
    first = client.submit(spec)
    second = client.submit(spec)
    shard_of = lambda r: r["job_id"].split(".")[0]  # noqa: E731
    assert shard_of(first) == shard_of(second)
    assert second.get("coalesced") or second.get("cached")
    client.wait(first["job_id"], timeout=120)


def test_spread_uses_both_shards(fleet):
    router, _ = fleet
    # The ring itself must spread these keys over both shards.
    owners = {
        router.router.ring.route(job_key(_variant(i))) for i in range(32)
    }
    assert owners == {"s0", "s1"}


def test_per_shard_drain_moves_intake_to_the_rest(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    drained = client._json("POST", "/v1/shards/s0/drain")
    assert drained == {"status": "draining", "shard": "s0"}
    for i in range(8):
        response = client.submit(_variant(100 + i))
        assert response["job_id"].startswith("s1."), response
    health = client.health()
    assert health["shards"]["s0"] == "draining"
    assert health["shards"]["s1"] == "ok"


def test_dead_shard_fails_over_to_live_one(fleet):
    router, backends = fleet
    # Kill shard s0 outright (drain + join = socket gone).
    backends[0].request_drain()
    backends[0].join()
    router.probe_now()
    client = ServeClient(router.host, router.port)
    for i in range(6):
        response = client.submit(_variant(200 + i))
        assert response["job_id"].startswith("s1."), response
        assert client.wait(response["job_id"], timeout=120)["status"] == "done"
    stats = client.stats()
    assert stats["live_shards"] == ["s1"]
    assert stats["shards"]["s0"]["healthy"] is False


def test_failover_counter_fires_on_forward_failure(fleet):
    router, backends = fleet
    backends[1].request_drain()
    backends[1].join()
    client = ServeClient(router.host, router.port)
    # Without a probe, the router discovers the dead shard on the first
    # forward that fails, demotes it, and retries the next preference.
    for i in range(12):
        response = client.submit(_variant(300 + i))
        assert response["job_id"].startswith("s0."), response
    counters = client.stats()["counters"]
    assert counters.get("serve.shard.failover", 0) >= 1


def test_compound_job_id_is_required_behind_the_router(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    for bogus in ("j00000001", "nope.j1", "s0"):
        status, blob = client._request("GET", f"/v1/jobs/{bogus}")
        assert status == 404, bogus
        assert json.loads(blob.decode())["error"] == "unknown_job"


def test_aggregate_stats_include_shard_views(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    done = client.submit(_variant(7))
    client.wait(done["job_id"], timeout=120)
    stats = client.stats()
    assert stats["role"] == "router"
    assert stats["shard_count"] == 2
    assert set(stats["shard_stats"]) == {"s0", "s1"}
    owner = done["job_id"].split(".")[0]
    assert stats["shard_stats"][owner]["counters"]["serve.completed"] >= 1
    assert stats["ring"]["replicas"] >= 1
    assert stats["config"]["REPRO_SERVE_PORT"] == 0
    assert set(stats["config"]) == {
        name for name in KNOBS if name.startswith("REPRO_SERVE_")
    }


def test_event_stream_pipes_through_the_router(fleet):
    router, _ = fleet
    client = ServeClient(router.host, router.port)
    accepted = client.submit(_variant(55))
    client.wait(accepted["job_id"], timeout=120)
    names = [event.get("event") for event in
             client.events(accepted["job_id"], timeout=60)]
    assert "job.queued" in names
    assert "job.done" in names


REPO_ROOT = Path(__file__).resolve().parents[2]


def test_sharded_cli_gives_each_shard_its_own_journal(isolated_cache):
    """``REPRO_SERVE_JOURNAL`` under ``--shards`` names a directory of
    per-shard journals; no shard may inherit the router's setting and
    share (then replay) another shard's file."""
    journals = isolated_cache / "journals"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_SERVE_JOURNAL"] = str(journals)
    router = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--shards", "2",
         "--workers", "0", "--port", "0"],
        env=env, cwd=isolated_cache, stderr=subprocess.PIPE, text=True,
    )
    try:
        shard_ports = {}
        while True:
            line = router.stderr.readline()
            assert line, f"lif serve exited early ({router.poll()})"
            address = line.split("http://")[-1].split()[0]
            if " shard " in line:
                shard_ports[line.split()[3]] = int(address.rsplit(":", 1)[1])
            if "router listening" in line:
                router_port = int(address.rsplit(":", 1)[1])
                break
        paths = {
            sid: ServeClient("127.0.0.1", port).stats()["journal"]["path"]
            for sid, port in shard_ports.items()
        }
        assert paths == {
            "s0": str(journals / "shard-0.jsonl"),
            "s1": str(journals / "shard-1.jsonl"),
        }
        config = ServeClient("127.0.0.1", router_port).stats()["config"]
        assert config["REPRO_SERVE_JOURNAL"] == str(journals)
        ServeClient("127.0.0.1", router_port).shutdown()
        assert router.wait(timeout=60) == 0
    finally:
        if router.poll() is None:
            # SIGTERM drains the router, which stops its shard processes;
            # SIGKILL would leave them running.
            router.terminate()
            try:
                router.wait(timeout=60)
            except subprocess.TimeoutExpired:
                router.kill()
                router.wait(timeout=30)
        router.stderr.close()


def test_drain_request_after_the_service_stopped(isolated_cache,
                                                 monkeypatch):
    """A shard the router already drained may close its loop just before
    its thread exits; a drain requested in that window is a no-op."""
    backend = ServerThread(ServeConfig.from_env(port=0, workers=0)).start()
    backend.request_drain()
    backend.join()
    assert backend.loop.is_closed()
    monkeypatch.setattr(backend._thread, "is_alive", lambda: True)
    backend.request_drain()
