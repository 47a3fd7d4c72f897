"""The header every result record carries, and the run's environment.

The benchmark clears every inherited ``REPRO_*`` knob before importing
the program, sets only the ones it needs (each run gets its own
``REPRO_CACHE_DIR``, so a repository's ``.repro-cache/`` never leaks into
a timing), and records both lists here.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

def isolate_environment(environ, workdir: Path, src: Path) -> tuple:
    """Drop inherited ``REPRO_*`` knobs; keep the run's caches and
    temporary files under ``workdir`` and import the program from ``src``.

    Returns ``(cleared names, {name: value} set)``.
    """
    cleared = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in cleared:
        del environ[name]
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    knobs = {
        "REPRO_CACHE_DIR": str(workdir / "cache"),
        "TMPDIR": str(workdir / "tmp"),
        "PYTHONPATH": str(src),
    }
    environ.update(knobs)
    return cleared, knobs


def git_revision(root: Path) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src_root: Path) -> str:
    """SHA-256 prefix over the program's Python sources (names and bytes),
    which identifies the code measured when no git revision is at hand."""
    digest = hashlib.sha256()
    for path in sorted(src_root.rglob("*.py")):
        digest.update(str(path.relative_to(src_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def make_header(*, root: Path, workload: str, seed: int, seconds: float,
                trace: bool, params: dict, layers: list, spans: list,
                env_set: dict, env_cleared: list) -> dict:
    return {
        "benchmark": "perfbench",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "git_revision": git_revision(root),
        "source_digest": source_digest(root / "src"),
        "params": params,
        "layers": layers,
        "spans": spans,
        "env_set": env_set,
        "env_cleared": env_cleared,
    }
