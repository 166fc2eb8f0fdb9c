"""Span self-time arithmetic and the tracer's wrapping."""

import json

from spans import Span, Target, Tracer, read_spans, self_times, subtree, write_spans


def spans(*rows):
    return [Span(i, parent, name, start, end) for i, parent, name, start, end in rows]


def test_self_time_subtracts_nested_children():
    s = spans(
        (1, None, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 5.0),
        (3, 2, "b", 2.0, 3.0),
    )
    assert self_times(s) == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_self_time_subtracts_siblings_once_each():
    s = spans(
        (1, None, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "a", 4.0, 7.0),
        (4, 1, "b", 8.0, 9.0),
    )
    got = self_times(s)
    assert got == {"root": 4.0, "a": 5.0, "b": 1.0}
    assert sum(got.values()) == 10.0


def test_overlapping_children_are_counted_once_and_clipped_to_parent():
    s = spans(
        (1, None, "root", 0.0, 10.0),
        (2, 1, "a", 2.0, 6.0),
        (3, 1, "b", 4.0, 8.0),
        (4, 1, "c", 9.0, 12.0),
    )
    assert self_times(s)["root"] == 10.0 - 6.0 - 1.0


def test_subtree_collects_descendants_only():
    s = spans(
        (1, None, "setup", 0.0, 1.0),
        (2, 1, "x", 0.1, 0.2),
        (3, None, "loop", 1.0, 2.0),
        (4, 3, "y", 1.1, 1.5),
        (5, 4, "z", 1.2, 1.3),
    )
    assert {x.id for x in subtree(s, s[2])} == {3, 4, 5}


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_tracer_records_parents_and_durations():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 4.0]))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, inner.parent, inner.duration) == ("inner", outer.id, 1.0)
    assert (outer.parent, outer.duration) == (None, 4.0)
    assert self_times(tracer.spans) == {"outer": 3.0, "inner": 1.0}


class Thing:
    def work(self, rows):
        return len(rows)


def test_patched_wraps_counts_and_restores():
    tracer = Tracer()
    original = Thing.__dict__["work"]
    with tracer.patched([Target(Thing, "work", "layer.work", lambda args, _: len(args[1]))]):
        assert Thing().work([1, 2, 3]) == 3
        with tracer.pause():
            Thing().work([1])
    assert Thing.__dict__["work"] is original
    assert [s.name for s in tracer.spans] == ["layer.work"]
    assert tracer.counts == {"layer.work": 1, "layer.work.n": 3}


def test_spans_round_trip_through_jsonl(tmp_path):
    s = spans((1, None, "root", 0.0, 1.0), (2, 1, "a", 0.25, 0.5))
    path = tmp_path / "spans.jsonl"
    write_spans(path, s, {"workload": "w"})
    header, back = read_spans(path)
    assert header == {"workload": "w"}
    assert back == s
    assert all(json.loads(line) for line in path.read_text().splitlines())
