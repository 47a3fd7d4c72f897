"""The documentation stays wired to reality.

Three easy-to-rot reference classes are checked mechanically: every
relative link in the ``docs/`` book (and the README) must resolve to a
file in the repository, every ``from repro… import …`` line of a fenced
Python block in ``docs/`` must import, and the EXPERIMENTS.md knob table
must match the program's knob table (:data:`repro.knobs.KNOBS`) both
ways, by name and by default, while each harness-only knob it documents
must be read under ``benchmarks/`` — a renamed, dropped or re-defaulted
knob, a moved page or an unexported name fails here instead of
misleading a reader.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro.knobs import KNOBS

REPO = Path(__file__).resolve().parents[2]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_KNOB_ROW = re.compile(
    r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|([^|]*)\|", re.MULTILINE
)
_PYTHON_BLOCK = re.compile(r"^\s*```python\n(.*?)^\s*```", re.MULTILINE | re.DOTALL)
_REPRO_IMPORT = re.compile(
    r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+([\w\s,]+?)\s*(?:#.*)?$",
    re.MULTILINE,
)
#: Knobs of the benchmark harnesses, not of the program.
_HARNESS_ONLY = re.compile(r"REPRO_SOAK_|REPRO_BENCH_REPS$")


def _doc_pages():
    pages = sorted((REPO / "docs").glob("*.md"))
    assert pages, "docs/ book missing"
    return [REPO / "README.md"] + pages


def test_docs_python_imports_resolve():
    checked, broken = 0, []
    for page in sorted((REPO / "docs").glob("*.md")):
        for block in _PYTHON_BLOCK.findall(page.read_text()):
            for module_name, names in _REPRO_IMPORT.findall(block):
                module = importlib.import_module(module_name)
                for name in names.split(","):
                    checked += 1
                    if not hasattr(module, name.strip()):
                        broken.append(
                            f"{page.name}: from {module_name} import "
                            f"{name.strip()}"
                        )
    assert checked, "no repro imports found in the docs' Python blocks"
    assert not broken, f"documented imports that fail: {broken}"


def test_docs_relative_links_resolve():
    broken = []
    for page in _doc_pages():
        for target in _LINK.findall(page.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # intra-page anchor
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                broken.append(f"{page.relative_to(REPO)} -> {target}")
    assert not broken, "broken relative links:\n" + "\n".join(broken)


def test_experiments_knobs_are_read_in_src():
    rows = _KNOB_ROW.findall((REPO / "EXPERIMENTS.md").read_text())
    documented = {
        name: default.strip().strip("`")
        for name, default in rows
        if not _HARNESS_ONLY.match(name)
    }
    table = {name: row.default_text() for name, row in KNOBS.items()}
    assert sorted(documented) == sorted(table), (
        "EXPERIMENTS.md and repro.knobs disagree on the knob set: "
        f"undocumented {sorted(set(table) - set(documented))}, "
        f"not in the table {sorted(set(documented) - set(table))}"
    )
    wrong = {
        name: (documented[name], table[name])
        for name in table if documented[name] != table[name]
    }
    assert not wrong, f"documented vs table defaults differ: {wrong}"
    harness = "\n".join(
        path.read_text() for path in (REPO / "benchmarks").rglob("*.py")
    )
    unread = [
        name for name, _ in rows
        if _HARNESS_ONLY.match(name) and name not in harness
    ]
    assert not unread, f"harness knobs read nowhere in benchmarks/: {unread}"


def test_docs_name_every_bench_record():
    """Each committed BENCH_*.json is documented in EXPERIMENTS.md."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    missing = [
        record.name
        for record in sorted(REPO.glob("BENCH_*.json"))
        if record.name not in text
    ]
    assert not missing, f"EXPERIMENTS.md never mentions: {missing}"
