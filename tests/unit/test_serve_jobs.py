"""Deterministic job execution and the warm module memo."""

import json

import pytest

from repro.serve import JobSpec, canonical_result_bytes, execute_job
from repro.serve import jobs as jobs_module
from repro.serve.jobs import (
    clear_warm_modules,
    make_verify_inputs,
    prepared_modules,
    warm_module_stats,
)

SOURCE = """
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

BROKEN = "uint oops( {"


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_warm_modules()
    yield
    clear_warm_modules()


def test_repair_job_result():
    result = execute_job(JobSpec(kind="repair", source=SOURCE, name="gate"))
    assert result["kind"] == "repair"
    assert "error" not in result
    assert "ctsel" in result["ir"]
    assert result["repaired_instructions"] >= result["original_instructions"]
    assert result["size_ratio"] > 0


def test_verify_job_matches_direct_covenant_check():
    from repro.api import compile_minic
    from repro.verify import check_covenant

    spec = JobSpec(kind="verify", source=SOURCE, name="gate", entry="gate",
                   runs=3, seed=7, array_size=4)
    result = execute_job(spec)
    module = compile_minic(SOURCE, name="gate")
    inputs = make_verify_inputs(module, "gate", 3, 7, 4)
    report = check_covenant(module, "gate", inputs)
    assert result["holds"] == report.holds
    assert result["operation_invariant"] == report.operation_invariant
    assert result["data_invariant"] == report.data_invariant


def test_run_job_result():
    spec = JobSpec(kind="run", source=SOURCE, name="gate", entry="gate",
                   args=(12, 7))
    result = execute_job(spec)
    assert result["value"] == 3
    assert result["violations"] == 0
    assert result["steps"] > 0


def test_certify_job_result():
    result = execute_job(JobSpec(kind="certify", source=SOURCE, name="gate"))
    assert result["kind"] == "certify"
    assert "gate" in result["report"]["functions"]


def test_pipeline_failure_is_a_deterministic_result():
    first = execute_job(JobSpec(kind="repair", source=BROKEN, name="bad"))
    second = execute_job(JobSpec(kind="repair", source=BROKEN, name="bad"))
    assert "error" in first
    assert first == second
    assert canonical_result_bytes(first) == canonical_result_bytes(second)


def test_canonical_bytes_are_stable():
    spec = JobSpec(kind="repair", source=SOURCE, name="gate")
    blob = canonical_result_bytes(execute_job(spec))
    assert blob == canonical_result_bytes(execute_job(spec))
    assert json.loads(blob.decode())["kind"] == "repair"
    assert blob.endswith(b"\n")


def test_warm_memo_hits_on_repeat_submissions():
    spec = JobSpec(kind="repair", source=SOURCE, name="gate")
    execute_job(spec)
    first = warm_module_stats()
    assert first["misses"] == 1
    assert first["entries"] == 1
    execute_job(spec)
    second = warm_module_stats()
    assert second["hits"] >= 1
    assert second["misses"] == 1
    # the memoised module object is the same across jobs (identity-keyed
    # executor caches stay warm because of exactly this)
    module_a, _ = prepared_modules(SOURCE, "gate", False)
    module_b, _ = prepared_modules(SOURCE, "gate", False)
    assert module_a is module_b


def test_warm_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(jobs_module, "WARM_MODULES", 2)
    for index in range(4):
        prepared_modules(SOURCE + f"// v{index}\n", "gate", False)
    stats = warm_module_stats()
    assert stats["entries"] == 2
    assert stats["evictions"] == 2
