"""Deterministic fault injection for the serve layer (``REPRO_SERVE_FAULTS``).

The chaos suite and the soak benchmark need real failure modes — dead
workers, stalls, severed connections, crashes mid-journal-append — that
fire at *exactly* the planned points, so a test can assert the
``serve.fault.*`` counters match the injected plan and the run is
reproducible under any test parallelism.

A plan is a comma-separated list of directives, each ``mode@index`` with
an optional ``:arg``.  Indices are 1-based positions in a per-mode
deterministic sequence:

=============  ==============================================  =========
directive      fires on                                        effect
=============  ==============================================  =========
``crash@N``    the N-th job *dispatched* to the pool           the worker dies (``os._exit`` in process mode, a ``WorkerCrashed`` raise in thread mode); the server rebuilds the pool if needed and retries the job
``slow@N:S``   the N-th job dispatched to the pool             the worker sleeps ``S`` seconds (default 0.25) before executing
``drop@N``     the N-th job-submission response                the server severs the connection before writing the response; the client retries idempotently via the job key
``torn@N``     the N-th journal append                         half the record is written, then the process dies (``os._exit``) — the torn tail recovery path
=============  ==============================================  =========

Example: ``REPRO_SERVE_FAULTS="crash@2,slow@4:0.1,drop@1,drop@5"``.

Every directive fires exactly once; ``FaultPlan.fired`` counts per mode
and each firing bumps ``serve.fault.<mode>``.  An empty/unset plan is a
shared no-op instance with zero per-call cost.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.obs import OBS

#: Recognised fault modes.
FAULT_MODES = ("crash", "slow", "drop", "torn")

#: Default stall for ``slow`` directives without an explicit argument.
DEFAULT_SLOW_SECONDS = 0.25

#: Exit codes of intentionally killed processes (diagnosable in waits).
CRASH_EXIT_CODE = 13
TORN_EXIT_CODE = 17


class WorkerCrashed(RuntimeError):
    """Thread-mode stand-in for a worker process dying mid-job."""


class FaultPlanError(ValueError):
    """A malformed ``REPRO_SERVE_FAULTS`` spec."""


class FaultPlan:
    """A parsed, consume-once fault schedule."""

    def __init__(self, directives: "dict[tuple, Optional[float]]" = None
                 ) -> None:
        #: (mode, index) -> arg; consumed (moved to ``fired``) on take().
        self._directives = dict(directives or {})
        self._planned = dict(self._directives)
        self.fired: dict[str, int] = {}

    def __bool__(self) -> bool:
        return bool(self._planned)

    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        directives: dict = {}
        for chunk in (text or "").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            mode, sep, rest = chunk.partition("@")
            if not sep or mode not in FAULT_MODES:
                raise FaultPlanError(
                    f"bad fault directive {chunk!r} "
                    f"(expected <mode>@<index>[:arg], "
                    f"mode one of {', '.join(FAULT_MODES)})"
                )
            index_text, _, arg_text = rest.partition(":")
            try:
                index = int(index_text)
            except ValueError:
                raise FaultPlanError(
                    f"bad fault index in {chunk!r}"
                ) from None
            if index < 1:
                raise FaultPlanError(f"fault index must be >= 1: {chunk!r}")
            arg = None
            if arg_text:
                try:
                    arg = float(arg_text)
                except ValueError:
                    raise FaultPlanError(
                        f"bad fault argument in {chunk!r}"
                    ) from None
            directives[(mode, index)] = arg
        return cls(directives)

    def take(self, mode: str, index: int) -> "Optional[tuple]":
        """Consume directive ``mode@index``; ``(mode, arg)`` or None.

        Consuming marks the directive fired so a retried job (after the
        injected crash) runs clean — which is the whole point.
        """
        if (mode, index) not in self._directives:
            return None
        arg = self._directives.pop((mode, index))
        self.fired[mode] = self.fired.get(mode, 0) + 1
        if OBS.enabled:
            OBS.counter(f"serve.fault.{mode}")
        return (mode, arg)

    def planned(self) -> dict:
        """Per-mode directive counts of the full plan (fired or not)."""
        counts: dict[str, int] = {}
        for mode, _ in self._planned:
            counts[mode] = counts.get(mode, 0) + 1
        return counts

    def stats(self) -> dict:
        return {
            "planned": self.planned(),
            "fired": dict(sorted(self.fired.items())),
            "pending": len(self._directives),
        }


#: The shared no-op plan (empty env).
NO_FAULTS = FaultPlan()


def worker_fault_token(plan: FaultPlan, dispatch_index: int
                       ) -> Optional[str]:
    """The fault token to ship with a dispatched job, or None.

    Consumes the directive in the *server* process so the plan's
    bookkeeping is centralised; the token (``"crash"`` / ``"slow:0.1"``)
    is applied by the worker via :func:`apply_worker_fault`.
    """
    taken = plan.take("crash", dispatch_index)
    if taken is not None:
        return "crash"
    taken = plan.take("slow", dispatch_index)
    if taken is not None:
        seconds = taken[1] if taken[1] is not None else DEFAULT_SLOW_SECONDS
        return f"slow:{seconds}"
    return None


def apply_worker_fault(token: Optional[str], process_mode: bool) -> None:
    """Apply a fault token inside a worker, before the job runs."""
    if not token:
        return
    mode, _, arg = token.partition(":")
    if mode == "slow":
        time.sleep(float(arg) if arg else DEFAULT_SLOW_SECONDS)
        return
    if mode == "crash":
        if process_mode:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashed("injected worker crash")


def make_torn_append_fault(plan: FaultPlan):
    """A journal append hook that dies mid-write on ``torn@N``.

    Writes a strict prefix of the encoded record (no newline), pushes it
    to disk, and exits the process — exactly the torn tail
    :meth:`repro.serve.journal.JobJournal.recover` must detect and
    truncate.  Returns None for an empty plan so the journal's fast path
    stays hook-free.
    """
    if not plan:
        return None
    state = {"appends": 0}

    def fault(line: bytes, journal) -> None:
        state["appends"] += 1
        if plan.take("torn", state["appends"]) is None:
            return
        handle = journal._open()
        handle.write(line[: max(1, len(line) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
        os._exit(TORN_EXIT_CODE)

    return fault
