import pytest

from perfbench.serveload import (
    DECK,
    DECK_SIZE,
    KINDS,
    PROGRAMS,
    JobTiming,
    due_times,
    lateness,
    make_schedule,
)


def test_due_times_follow_a_fixed_rate():
    assert due_times(4, 2.0) == [0.0, 0.5, 1.0, 1.5]


def test_lateness_is_send_minus_due_and_never_negative():
    assert lateness([0.0, 1.0, 2.0], [0.25, 0.9, 2.5]) == [0.25, 0.0, 0.5]


def test_latency_counts_from_due_time_not_send_time():
    """A job sent late because the generator stalled is charged the stall."""
    from perfbench.serveload import ServeMixed

    timing = JobTiming(due=1.0, sent=1.4, acked=1.5, done=1.6, read=1.7,
                       job_id="j1", blob=b"{}\n")
    assert ServeMixed.latency(timing, window_end=2.0) == pytest.approx(0.7)
    failed = JobTiming(due=1.0, sent=1.4, error="refused")
    assert ServeMixed.latency(failed, window_end=2.0) == pytest.approx(1.0)


def test_schedule_is_seeded_and_keeps_deck_composition():
    count = 2 * DECK_SIZE
    first = make_schedule(7, count, 10.0)
    again = make_schedule(7, count, 10.0)
    other = make_schedule(8, count, 10.0)
    assert [p.spec for p in first] == [p.spec for p in again]
    assert [p.spec for p in first] != [p.spec for p in other]
    assert [p.due for p in first] == due_times(count, 10.0)
    cards = sum(share for _, share in DECK)
    for kind in KINDS:
        for program in PROGRAMS:
            jobs = [p for p in first
                    if p.spec.kind == kind and p.spec.name == program]
            assert len(jobs) == 2 * cards
    labels = {label: sum(1 for p in first if p.reuse == label) for label, _ in DECK}
    assert labels == {label: 2 * share * len(KINDS) * len(PROGRAMS)
                      for label, share in DECK}


def test_schedule_classes_relate_to_earlier_jobs():
    schedule = make_schedule(3, 120, 10.0)
    seen_specs: list = []
    fresh_sources: set = set()
    for planned in schedule:
        spec = planned.spec
        if planned.reuse == "repeat":
            assert spec in seen_specs
        elif planned.reuse == "reuse":
            assert spec.source in fresh_sources
            assert spec not in seen_specs
        else:
            assert spec.source not in fresh_sources
            fresh_sources.add(spec.source)
        seen_specs.append(spec)


