"""Every ``REPRO_*`` environment knob, in one typed table.

Each :class:`Knob` row names a variable, its kind, its default, the
values it accepts and what it does; :data:`KNOBS` is the table and
:func:`knob` the one reader.  ``knob(name)`` looks the variable up when
it is called — nothing is read at import, so a test can monkeypatch the
environment between calls — and returns the row's default when the
variable is unset or blank.  A spelling it cannot parse, or a value
outside the row's bounds, raises :class:`ValueError` naming the knob and
what it accepts: a typo never silently runs the default configuration.

On/off knobs share one set of spellings, case-insensitive:
``1``/``yes``/``true``/``on`` and ``0``/``no``/``false``/``off``.

The EXPERIMENTS.md knob table documents every row;
``tests/unit/test_docs_references.py`` compares the two both ways, by
name and by default.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass
from typing import Optional

ON = ("1", "yes", "true", "on")
OFF = ("0", "no", "false", "off")


@dataclass(frozen=True)
class Knob:
    """One environment knob.

    ``kind`` is ``int`` or ``float`` (bounded by ``low``/``high`` where
    given), ``flag`` (on/off), ``choice`` (one of ``choices``), ``text``
    (any printable string) or ``parse``: the raw text goes to
    ``parser`` (``"module:function"``, imported on first use), which
    sees ``""`` when the variable is unset, so every read gets a fresh
    value.  ``shown`` is the default as the docs write it, where the
    value alone does not say it.
    """

    name: str
    kind: str
    default: object
    doc: str
    low: Optional[float] = None
    high: Optional[float] = None
    choices: tuple = ()
    parser: Optional[str] = None
    shown: Optional[str] = None

    def default_text(self) -> str:
        if self.shown is not None:
            return self.shown
        if self.default is None:
            return "unset"
        if self.kind == "flag":
            return "1" if self.default else "0"
        return f"{self.default:g}" if self.kind == "float" else str(self.default)

    def accepts(self) -> str:
        if self.kind == "flag":
            return "one of " + ", ".join(ON + OFF)
        if self.kind == "choice":
            return "one of " + ", ".join(self.choices)
        if self.kind == "text":
            return "printable text"
        noun = "an integer" if self.kind == "int" else "a finite number"
        if self.high is not None:
            return f"{noun} in {self.low:g}..{self.high:g}"
        return f"{noun} >= {self.low:g}" if self.low is not None else noun


_ROWS = (
    Knob("REPRO_BACKEND", "choice", "auto",
         "execution engine for every dynamic measurement",
         choices=("auto", "interp", "compiled", "batch")),
    Knob("REPRO_BATCH_SIZE", "int", 256,
         "lanes per lock-step chunk on the batch backend", low=1),
    Knob("REPRO_BATCH_NUMPY", "flag", True,
         "NumPy lane kernels on the batch backend (off: pure-list lanes)"),
    Knob("REPRO_EXEC_CACHE_SIZE", "int", 128,
         "LRU bound on the identity-keyed compile and SoA executor caches",
         low=1),
    Knob("REPRO_JOBS", "int", None,
         "worker processes for suite builds and verification", low=1,
         shown="cpu count"),
    Knob("REPRO_CACHE", "flag", True, "off bypasses the artifact cache"),
    Knob("REPRO_CACHE_DIR", "text", ".repro-cache", "artifact cache root"),
    Knob("REPRO_OPT_SANITIZE", "flag", False,
         "per-pass leakage sanitizer in the opt pipeline"),
    Knob("REPRO_TRACE", "flag", False, "enable the metrics collector"),
    Knob("REPRO_TRACE_FILE", "text", None,
         "stream collector events to this JSONL file (implies tracing)"),
    Knob("REPRO_FUZZ_ROUND", "int", 64,
         "samples per coverage-guided campaign round", low=1),
    Knob("REPRO_SERVE_HOST", "text", "127.0.0.1", "lif serve bind address"),
    Knob("REPRO_SERVE_PORT", "int", 8765,
         "lif serve bind port (0: ephemeral)", low=0, high=65535),
    Knob("REPRO_SERVE_WORKERS", "int", None,
         "serve worker-pool width (0: in-process thread mode)", low=0,
         shown="cpu count"),
    Knob("REPRO_SERVE_RECYCLE", "int", 200,
         "jobs a serve worker handles before it is recycled (0: never)",
         low=0),
    Knob("REPRO_SERVE_QUEUE", "int", 512,
         "submitted-but-unfinished jobs before 429 back-pressure", low=1),
    Knob("REPRO_SERVE_TENANT_RPS", "float", 0.0,
         "per-tenant submission rate (0: limiter off)", low=0),
    Knob("REPRO_SERVE_SPOOL", "text", None, "per-job JSONL event spool",
         shown="$REPRO_CACHE_DIR/serve-spool"),
    Knob("REPRO_SERVE_CACHE", "flag", True, "the served-result cache"),
    Knob("REPRO_SERVE_JOURNAL", "text", None,
         "crash-replay job journal (a directory under --shards)"),
    Knob("REPRO_SERVE_JOURNAL_FSYNC", "int", 8,
         "fsync the journal every N appends", low=1),
    Knob("REPRO_SERVE_CLASSES", "parse", None,
         "priority-class weights for deficit-round-robin dispatch",
         parser="repro.serve.server:parse_class_weights",
         shown="equal weights"),
    Knob("REPRO_SERVE_RETRIES", "int", 2,
         "re-dispatches after pool breakage before a job fails", low=0),
    Knob("REPRO_SERVE_FAULTS", "parse", None, "deterministic fault plan",
         parser="repro.serve.faults:FaultPlan.parse"),
)

#: The table: knob name -> row.
KNOBS: "dict[str, Knob]" = {row.name: row for row in _ROWS}


def knob(name: str):
    """The value of knob ``name`` in the environment, or its default."""
    row = KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if row.kind == "parse":
        return _parse(row, raw)
    if not raw:
        return row.default
    if row.kind == "text":
        if raw.isprintable():
            return raw
    elif row.kind == "flag":
        if raw.lower() in ON:
            return True
        if raw.lower() in OFF:
            return False
    elif row.kind == "choice":
        if raw in row.choices:
            return raw
    else:
        try:
            value = int(raw) if row.kind == "int" else float(raw)
        except ValueError:
            value = None
        if value is not None \
                and (row.kind == "int" or math.isfinite(value)) \
                and (row.low is None or value >= row.low) \
                and (row.high is None or value <= row.high):
            return value
    raise ValueError(f"${name} must be {row.accepts()}, got {raw!r}")


def _parse(row: Knob, raw: str):
    module, _, attribute = row.parser.partition(":")
    parse = importlib.import_module(module)
    for part in attribute.split("."):
        parse = getattr(parse, part)
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"${row.name}: {exc}") from None


def knob_values(prefix: str) -> dict:
    """``{name: value}`` of every knob named ``prefix*``, JSON-ready: a
    ``parse`` knob shows its (validated) text, the others their value."""
    values = {}
    for name, row in KNOBS.items():
        if name.startswith(prefix):
            value = knob(name)
            if row.kind == "parse":
                value = os.environ.get(name, "").strip() or None
            values[name] = value
    return values
