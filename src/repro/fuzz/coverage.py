"""The deterministic coverage map guiding mutation-based campaigns.

Coverage here is *pipeline* coverage, not line coverage of this repository:
a sample is scored by which behaviours it provokes out of the stack under
test.  Two signal families are folded into one key set per sample:

* **branch edges** — the block-transition edges of one traced execution of
  the sample over its deterministic input vectors
  (``edge:<fn>:<from>-><to>``, plus ``call:<fn>-><fn>`` for cross-function
  transfers).  Block labels are structure-derived (``if.then``,
  ``if.join``…), so edge keys encode the sample's control-flow shape.
* **counter deltas** — the obs counters fired while the six-oracle battery
  ran the sample, harvested with ``OBS.capture(force=True)`` so campaigns
  need no global tracing.  Only *deterministic* counter families are
  admitted (see :data:`COUNTER_FAMILIES`): repair-rule firings
  (``core.repair.*``), optimizer-pass firings (``opt.pass.*``), certifier
  rule ids (``statics.certifier.rule.*``) and oracle failures.  Wall-clock
  (``*.seconds``) and process-history counters (``exec.*``,
  ``artifacts.*``) are excluded — the same sample must map to the same
  keys in every process, or sharded campaigns would diverge.

Magnitude counters are bucketed to their bit length (``b0, b1, b2…``), so
"repair inserted ~2x more ctsels than anything seen before" is novel
coverage while "+1 ctsel" is not.

:class:`CoverageMap` accumulates keys across a campaign and records the
sample index that reached each key first — the dashboard's coverage-growth
table reads straight out of it, and its dict form round-trips through the
campaign checkpoints.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

#: Deterministic counter families admitted as coverage signals, and how
#: each is keyed.  ``exact`` families key on presence alone; ``bucketed``
#: families key on the bit length of the accumulated value.
COUNTER_FAMILIES = {
    "exact": ("statics.certifier.rule.",),
    "bucketed": ("core.repair.", "opt.pass."),
}

#: Counter suffixes never admitted (wall-clock measurements).
_EXCLUDED_SUFFIXES = (".seconds",)


def value_bucket(value: float) -> int:
    """Bit-length bucket of a counter value (0 for non-positive)."""
    v = int(value)
    return v.bit_length() if v > 0 else 0


def counter_keys(counters: Optional[dict]) -> set:
    """Coverage keys from one sample's counter delta (see module doc)."""
    keys: set = set()
    if not counters:
        return keys
    for name, value in counters.items():
        if name.endswith(_EXCLUDED_SUFFIXES):
            continue
        if name.startswith(COUNTER_FAMILIES["exact"]):
            keys.add(f"ctr:{name}")
        elif name.startswith(COUNTER_FAMILIES["bucketed"]):
            keys.add(f"ctr:{name}:b{value_bucket(value)}")
        elif name == "opt.fixpoint_iterations":
            keys.add(f"ctr:{name}:b{value_bucket(value)}")
        elif name.startswith("fuzz.oracle.") and name.endswith(".failed"):
            keys.add(f"ctr:{name}")
    return keys


def branch_edge_keys(
    module,
    entry: str,
    vectors: Sequence[Sequence[object]],
    backend: str = "auto",
) -> set:
    """Block-transition edges of ``module`` traced over ``vectors``.

    The backend is pinned (default ``auto``: a sample runs too few times
    to repay compilation) rather than read from ``REPRO_BACKEND``: all
    backends produce identical traces, but pinning keeps the per-sample
    cost independent of the environment.
    """
    from repro.exec.backend import make_executor, run_many

    executor = make_executor(
        module, backend=backend, strict_memory=False, record_trace=True
    )
    keys: set = set()
    for result in run_many(executor, entry, vectors):
        previous = None
        for site in result.trace.instructions:
            if previous is not None:
                if site.function != previous.function:
                    keys.add(f"call:{previous.function}->{site.function}")
                elif site.block != previous.block:
                    keys.add(
                        f"edge:{site.function}:"
                        f"{previous.block}->{site.block}"
                    )
            previous = site
    return keys


def sample_keys(
    module,
    entry: str,
    vectors: Sequence[Sequence[object]],
    counters: Optional[dict],
) -> set:
    """The full coverage key set for one sample."""
    try:
        edges = branch_edge_keys(module, entry, vectors)
    except Exception:
        # A sample the executor rejects still has counter coverage; the
        # oracle battery reports the execution problem on its own.
        edges = set()
    return edges | counter_keys(counters)


class CoverageMap:
    """Campaign-global coverage: key -> sample index that reached it first."""

    def __init__(self) -> None:
        self.first_seen: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.first_seen)

    def __contains__(self, key: str) -> bool:
        return key in self.first_seen

    def observe(self, keys: Iterable[str], index: int) -> list:
        """Fold one sample's keys in; return its novel keys, sorted."""
        new = sorted(k for k in keys if k not in self.first_seen)
        for key in new:
            self.first_seen[key] = index
        return new

    def as_dict(self) -> dict:
        return {"first_seen": dict(sorted(self.first_seen.items()))}

    @classmethod
    def from_dict(cls, record: dict) -> "CoverageMap":
        cover = cls()
        cover.first_seen = {
            str(k): int(v) for k, v in record.get("first_seen", {}).items()
        }
        return cover

    def growth(self, checkpoints: Sequence[int]) -> list:
        """Cumulative key counts at the given sample-index checkpoints."""
        indices = sorted(self.first_seen.values())
        out = []
        for bound in checkpoints:
            count = 0
            for idx in indices:
                if idx >= bound:
                    break
                count += 1
            out.append(count)
        return out
