"""The crash-replay job journal: accepted work survives a dead server.

An append-only JSONL ledger next to the result cache.  Two record types:

* ``accept`` — written *before* a submission is acknowledged, carrying
  the full job payload (the job is re-executable from the record alone);
* ``done`` — written when the job finishes (any terminal status).

On startup :meth:`JobJournal.recover` replays the ledger: every accept
without a matching done is an accepted-but-incomplete job the server
re-enqueues under its original job id.  Results re-serve byte-identical
because execution is deterministic and the content-addressed result
cache survives restarts.

Durability discipline:

* every record carries a CRC-32 of its own canonical encoding; a torn
  tail (the classic crash-mid-append) fails the JSON parse or the CRC
  and is **truncated, not fatal** — recovery never loses the records
  before it (``serve.journal.torn_tail`` counts the event);
* appends are flushed always and fsynced every ``fsync_every`` records
  (``REPRO_SERVE_JOURNAL_FSYNC``, default 8; ``1`` = fsync per append),
  batching the expensive barrier without unbounded loss windows;
* recovery **compacts**: the surviving pending records are rewritten
  through the artifact store's staging + ``os.replace`` discipline, so
  the ledger never grows across restarts and a crash mid-compaction
  leaves the old journal intact.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Callable, Optional

from repro.knobs import knob
from repro.obs import OBS


def _encode(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode())
    return (
        json.dumps({**record, "crc": crc}, sort_keys=True,
                   separators=(",", ":")) + "\n"
    ).encode()


def _decode(line: bytes) -> Optional[dict]:
    """The record, or None when the line is torn/corrupt."""
    try:
        record = json.loads(line.decode())
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(body.encode()) != crc:
        return None
    return record


class JobJournal:
    """Append-only accept/done ledger with torn-tail-safe recovery."""

    def __init__(self, path, fsync_every: Optional[int] = None) -> None:
        self.path = Path(path)
        self.fsync_every = (
            knob("REPRO_SERVE_JOURNAL_FSYNC") if fsync_every is None
            else max(1, fsync_every)
        )
        self._handle = None
        self._unsynced = 0
        self.stats_counters = {
            "appends": 0, "fsyncs": 0, "replayed": 0,
            "torn_tail": 0, "compactions": 0,
        }
        #: Optional fault hook (:mod:`repro.serve.faults`): called before
        #: each append with the encoded line; a ``torn`` directive writes
        #: a partial record and kills the process to simulate the crash
        #: the recovery path exists for.
        self.append_fault: Optional[Callable[[bytes, object], None]] = None

    # -- recovery ------------------------------------------------------------

    def recover(self) -> list:
        """Replay the ledger; returns pending accept records in order.

        Truncates a torn tail, compacts the surviving pending set back to
        disk, and leaves the journal open for appending.
        """
        pending: "dict[str, dict]" = {}
        good = 0
        torn = False
        try:
            blob = self.path.read_bytes()
        except OSError:
            blob = b""
        offset = 0
        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            if newline < 0:  # no terminator: torn tail
                torn = True
                break
            record = _decode(blob[offset:newline])
            if record is None:  # unparsable or CRC-failed record
                torn = True
                break
            offset = newline + 1
            good += 1
            if record.get("t") == "accept":
                pending[record["job_id"]] = record
            elif record.get("t") == "done":
                pending.pop(record["job_id"], None)
        if torn:
            self._count("serve.journal.torn_tail")
            self.stats_counters["torn_tail"] += 1
        replayed = sorted(pending.values(), key=lambda r: r.get("seq", 0))
        self.stats_counters["replayed"] += len(replayed)
        if replayed:
            self._count("serve.journal.replayed", len(replayed))
        self._compact(replayed)
        return replayed

    def _compact(self, records: list) -> None:
        """Atomically rewrite the journal to exactly ``records``."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, staging = tempfile.mkstemp(
            dir=self.path.parent, prefix=".journal-"
        )
        with os.fdopen(fd, "wb") as handle:
            for record in records:
                handle.write(_encode({k: v for k, v in record.items()
                                      if k != "crc"}))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, self.path)
        self.stats_counters["compactions"] += 1
        self._count("serve.journal.compactions")

    # -- appending -----------------------------------------------------------

    def append_accept(self, seq: int, job_id: str, key: str,
                      payload: dict) -> None:
        self._append({"t": "accept", "seq": seq, "job_id": job_id,
                      "key": key, "payload": payload})

    def append_done(self, seq: int, job_id: str, key: str,
                    status: str) -> None:
        self._append({"t": "done", "seq": seq, "job_id": job_id,
                      "key": key, "status": status})

    def _append(self, record: dict) -> None:
        line = _encode(record)
        if self.append_fault is not None:
            self.append_fault(line, self)
        handle = self._open()
        handle.write(line)
        handle.flush()
        self.stats_counters["appends"] += 1
        self._count("serve.journal.appends")
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self._fsync()

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    def _fsync(self) -> None:
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
            self._unsynced = 0
            self.stats_counters["fsyncs"] += 1
            self._count("serve.journal.fsyncs")

    def close(self) -> None:
        if self._handle is not None:
            self._fsync()
            self._handle.close()
            self._handle = None

    # -- misc ----------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if OBS.enabled:
            OBS.counter(name, value)

    def stats(self) -> dict:
        return {**self.stats_counters, "path": str(self.path),
                "fsync_every": self.fsync_every}
