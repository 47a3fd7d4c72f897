"""The typed knob table: defaults, bounds, spellings and loud failures."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.knobs import KNOBS, OFF, ON, knob, knob_values

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: One unacceptable spelling per kind (``parse`` rows: per knob).
JUNK = {
    "int": "two",
    "float": "fast",
    "flag": "maybe",
    "choice": "turbo",
    "text": "bad\nvalue",
    "REPRO_SERVE_CLASSES": "gold=zero",
    "REPRO_SERVE_FAULTS": "explode@1",
}

ROWS = sorted(KNOBS)
BOUNDED = [name for name in ROWS if KNOBS[name].kind in ("int", "float")]
FLAGS = [name for name in ROWS if KNOBS[name].kind == "flag"]


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)


def test_the_table_has_24_rows():
    assert len(KNOBS) == 24
    assert all(name.startswith("REPRO_") for name in KNOBS)


@pytest.mark.parametrize("name", ROWS)
def test_unset_and_blank_give_the_default(monkeypatch, name):
    row = KNOBS[name]
    for setting in (None, "", "   "):
        if setting is not None:
            monkeypatch.setenv(name, setting)
        value = knob(name)
        if row.kind == "parse":
            assert not value  # empty weights, empty fault plan
        else:
            assert value == row.default


@pytest.mark.parametrize("name", ROWS)
def test_junk_raises_naming_the_knob(monkeypatch, name):
    row = KNOBS[name]
    monkeypatch.setenv(name, JUNK.get(name, JUNK.get(row.kind)))
    with pytest.raises(ValueError, match=re.escape(name)):
        knob(name)


@pytest.mark.parametrize("name", BOUNDED)
def test_bounds_hold(monkeypatch, name):
    row = KNOBS[name]
    step = 1 if row.kind == "int" else 0.5
    cast = int if row.kind == "int" else float
    monkeypatch.setenv(name, str(cast(row.low)))
    assert knob(name) == row.low
    monkeypatch.setenv(name, str(cast(row.low - step)))
    with pytest.raises(ValueError, match=re.escape(name)):
        knob(name)
    if row.high is not None:
        monkeypatch.setenv(name, str(cast(row.high)))
        assert knob(name) == row.high
        monkeypatch.setenv(name, str(cast(row.high + step)))
        with pytest.raises(ValueError, match=re.escape(name)):
            knob(name)


@pytest.mark.parametrize("name", FLAGS)
@pytest.mark.parametrize("spelling", ON + OFF)
def test_every_on_off_spelling(monkeypatch, name, spelling):
    for variant in (spelling, spelling.upper(), f" {spelling} "):
        monkeypatch.setenv(name, variant)
        assert knob(name) is (spelling in ON)


def test_choices_text_and_parsers_read_their_values(monkeypatch):
    for backend in KNOBS["REPRO_BACKEND"].choices:
        monkeypatch.setenv("REPRO_BACKEND", backend)
        assert knob("REPRO_BACKEND") == backend
    monkeypatch.setenv("REPRO_CACHE_DIR", " /tmp/cache dir ")
    assert knob("REPRO_CACHE_DIR") == "/tmp/cache dir"
    monkeypatch.setenv("REPRO_SERVE_CLASSES", "gold=4,normal=1")
    assert knob("REPRO_SERVE_CLASSES") == {"gold": 4, "normal": 1}
    monkeypatch.setenv("REPRO_SERVE_FAULTS", "crash@2,drop@1")
    assert knob("REPRO_SERVE_FAULTS").planned() == {"crash": 1, "drop": 1}
    monkeypatch.setenv("REPRO_SERVE_TENANT_RPS", "2.5")
    assert knob("REPRO_SERVE_TENANT_RPS") == 2.5
    monkeypatch.setenv("REPRO_SERVE_TENANT_RPS", "inf")
    with pytest.raises(ValueError, match="REPRO_SERVE_TENANT_RPS"):
        knob("REPRO_SERVE_TENANT_RPS")


def test_knob_values_are_json_ready(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_FAULTS", "slow@3:0.5")
    monkeypatch.setenv("REPRO_SERVE_QUEUE", "64")
    values = knob_values("REPRO_SERVE_")
    assert set(values) == {n for n in KNOBS if n.startswith("REPRO_SERVE_")}
    assert values["REPRO_SERVE_FAULTS"] == "slow@3:0.5"
    assert values["REPRO_SERVE_QUEUE"] == 64
    assert values["REPRO_SERVE_CLASSES"] is None


def test_only_the_table_reads_the_environment():
    reads = re.compile(r"os\.environ\.get\(|os\.getenv\(|environ\.get\(")
    readers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if reads.search(path.read_text())
    )
    assert readers == ["knobs.py"]


# -- each case below was silently mis-read before the table ------------------


def test_trace_false_keeps_tracing_off(monkeypatch):
    from repro.obs import Collector

    monkeypatch.setenv("REPRO_TRACE", "false")
    assert not Collector.from_env().enabled


def test_sanitize_off_keeps_the_sanitizer_off(monkeypatch):
    from repro.opt import sanitize_enabled

    monkeypatch.setenv("REPRO_OPT_SANITIZE", "off")
    assert not sanitize_enabled()


def test_cache_false_disables_the_store(monkeypatch):
    from repro.artifacts import default_store

    monkeypatch.setenv("REPRO_CACHE", "false")
    assert default_store() is None


def test_serve_queue_typo_raises(monkeypatch):
    from repro.serve.server import ServeConfig

    monkeypatch.setenv("REPRO_SERVE_QUEUE", "5l2")
    with pytest.raises(ValueError, match="REPRO_SERVE_QUEUE"):
        ServeConfig.from_env()


def test_serve_port_typo_raises(monkeypatch):
    from repro.serve.router import RouterConfig
    from repro.serve.server import ServeConfig

    monkeypatch.setenv("REPRO_SERVE_PORT", "80a")
    for config in (ServeConfig, RouterConfig):
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            config.from_env()


def test_jobs_typo_names_the_knob(monkeypatch):
    from repro.artifacts import resolve_jobs

    monkeypatch.setenv("REPRO_JOBS", "two")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs()
