"""Per-job worker cost of the ``serve_mixed`` job mix, measured directly.

Runs every non-repeat job of a ``serve_mixed`` schedule through
``repro.serve.jobs.execute_job`` in this process, one after another, and
prints the median milliseconds per (reuse class, kind, program) and the
pool busy share the mix implies at the workload's rate.  Usage, from the
repository root::

    python3 perfbench/jobcost.py --seed 7 --jobs 240
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=240)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.serveload import KINDS, PROGRAMS, RATE_PER_S, WORKERS, make_schedule
    from repro.serve.jobs import execute_job

    schedule = make_schedule(args.seed, args.jobs, RATE_PER_S)
    costs: dict = {}
    for planned in schedule:
        if planned.reuse == "repeat":
            continue
        started = time.perf_counter()
        execute_job(planned.spec)
        costs.setdefault((planned.reuse, planned.spec.kind, planned.spec.name),
                         []).append(time.perf_counter() - started)
    print(f"{'class':6s} {'kind':8s} " + " ".join(f"{n:>8s}" for n in PROGRAMS))
    for reuse in ("fresh", "reuse"):
        for kind in KINDS:
            cells = [statistics.median(costs[(reuse, kind, name)]) * 1e3
                     for name in PROGRAMS]
            print(f"{reuse:6s} {kind:8s} " + " ".join(f"{c:8.1f}" for c in cells))
    per_job = sum(sum(samples) for samples in costs.values()) / len(schedule)
    print(f"mean worker time per scheduled job: {per_job * 1e3:.1f} ms")
    print(f"implied pool busy share at {RATE_PER_S:g} jobs/s on {WORKERS} workers: "
          f"{per_job * RATE_PER_S / WORKERS:.2f}")
    return 0


if __name__ == "__main__":
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != script_dir]
    raise SystemExit(main())
