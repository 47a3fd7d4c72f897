import json
import os
from pathlib import Path

from perfbench.header import isolate_environment, make_header

ROOT = Path(__file__).resolve().parents[2]


def test_header_has_every_key():
    header = make_header(
        root=ROOT, workload="suite_cold", seed=3, seconds=1.0, trace=False,
        params={"x": 1}, layers=["frontend"], spans=["parse_source"],
        env_set={"REPRO_CACHE_DIR": "c"}, env_cleared=["REPRO_BACKEND"],
    )
    assert set(header) == {
        "benchmark", "workload", "seed", "seconds", "trace", "cpu_count",
        "python", "platform", "git_revision", "source_digest", "params",
        "layers", "spans", "env_set", "env_cleared",
    }
    assert header["cpu_count"] == os.cpu_count()
    assert header["seed"] == 3
    assert len(header["source_digest"]) == 16
    json.dumps(header)


def test_environment_is_isolated(tmp_path):
    environ = {"REPRO_BACKEND": "interp", "REPRO_CACHE_DIR": "/elsewhere",
               "PATH": "/bin"}
    cleared, knobs = isolate_environment(environ, tmp_path, tmp_path / "src")
    assert cleared == ["REPRO_BACKEND", "REPRO_CACHE_DIR"]
    assert knobs == {"REPRO_CACHE_DIR": str(tmp_path / "cache"),
                     "TMPDIR": str(tmp_path / "tmp"),
                     "PYTHONPATH": str(tmp_path / "src")}
    assert environ == {"PATH": "/bin", **knobs}
    assert (tmp_path / "tmp").is_dir()


def test_metric_names_match_benchmark_json():
    from perfbench.layers import per_layer_units
    from perfbench.run import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_importing_the_benchmark_runs_nothing(tmp_path, monkeypatch):
    """Pool workers import these modules; importing must not run a
    workload or touch the file system."""
    import importlib

    monkeypatch.chdir(tmp_path)
    for name in ("perfbench.run", "perfbench.workloads", "perfbench.serveload"):
        importlib.reload(importlib.import_module(name))
    assert list(tmp_path.iterdir()) == []
