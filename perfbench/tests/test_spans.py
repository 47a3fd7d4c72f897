import sys
import types

import pytest

from perfbench.spans import (
    Instrument,
    Probe,
    Span,
    Tracer,
    covered_length,
    layer_rollup,
    self_times,
)


def _span(span_id, parent, start, end, layer="a", name="s"):
    return Span(span_id, parent, 1, name, layer, start, end)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3)
    assert covered_length([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),   # overlaps its sibling: counted once
        _span(4, 2, 1.5, 2.0),   # grandchild: not a child of 1
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_rollup_counts_outermost_spans_of_a_layer():
    spans = [
        _span(1, None, 0.0, 10.0, layer="root"),
        _span(2, 1, 1.0, 5.0, layer="ir"),
        _span(3, 2, 2.0, 4.0, layer="ir"),     # same layer nested: not busy again
        _span(4, 3, 2.5, 3.0, layer="exec"),
        _span(5, 4, 2.6, 2.8, layer="ir"),     # ir again under exec: still nested
        _span(6, 1, 6.0, 7.0, layer="ir"),
    ]
    rollup = layer_rollup(spans)
    assert rollup["ir"]["calls"] == 2
    assert rollup["ir"]["busy_s"] == pytest.approx(4.0 + 1.0)
    # self: 2 -> 4-2, 3 -> 2-0.5, 5 -> 0.2, 6 -> 1
    assert rollup["ir"]["self_s"] == pytest.approx(2.0 + 1.5 + 0.2 + 1.0)
    assert rollup["exec"]["self_s"] == pytest.approx(0.5 - 0.2)
    assert rollup["root"]["self_s"] == pytest.approx(10.0 - 5.0)


def test_tracer_assigns_trace_span_and_parent_ids():
    clock = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(clock)))
    outer = tracer.open("outer", "a")
    inner = tracer.open("inner", "b")
    tracer.close(inner)
    tracer.close(outer)
    second = tracer.open("second", "a")
    tracer.close(second)
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert outer.parent_id is None
    assert second.trace_id != outer.trace_id
    assert len({s.span_id for s in tracer.spans}) == 3
    late = tracer.add("measured", "c", 10.0, 12.0, parent=outer)
    assert late.trace_id == outer.trace_id and late.parent_id == outer.span_id


def test_instrument_wraps_every_reference_and_restores():
    package = types.ModuleType("fakepkg")
    package.__path__ = []
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x * 2

    class Thing:
        def run(self, y):
            return y + 1

    lib.work, lib.Thing = work, Thing
    run = Thing.__dict__["run"]
    user.work = work  # a ``from fakepkg.lib import work`` copy
    saved = {name: sys.modules.get(name) for name in ("fakepkg", "fakepkg.lib",
                                                      "fakepkg.user")}
    sys.modules.update({"fakepkg": package, "fakepkg.lib": lib,
                        "fakepkg.user": user})
    seen = []
    try:
        tracer = Tracer()
        probes = [
            Probe("fakepkg.lib:work", "work", "lib",
                  after=lambda state, args, result, span: seen.append(result)),
            Probe("fakepkg.lib:Thing.run", "Thing.run", "lib"),
        ]
        with Instrument(tracer, probes, package="fakepkg"):
            assert user.work(3) == 6 and lib.work(4) == 8
            assert Thing().run(1) == 2
        assert user.work is work and lib.work is work
        assert Thing.__dict__["run"] is run
        assert [s.name for s in tracer.spans] == ["work", "work", "Thing.run"]
        assert seen == [6, 8]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_instrument_records_errors_and_reraises():
    tracer = Tracer()
    module = types.ModuleType("fakeerr")

    def boom():
        raise ValueError("no")

    module.boom = boom
    sys.modules["fakeerr"] = module
    try:
        with Instrument(tracer, [Probe("fakeerr:boom", "boom", "x")],
                        package="fakeerr"):
            with pytest.raises(ValueError):
                module.boom()
    finally:
        del sys.modules["fakeerr"]
    assert tracer.spans[0].attrs["error"] == "ValueError"
    assert tracer.current() is None
