"""Rendering of the per-layer report."""

from report import render, useful_fraction
from spans import Span

SPANS = [
    Span(2, 1, "engine.load", 0.0, 0.5),
    Span(1, None, "bench.setup", 0.0, 1.0),
    Span(5, 4, "ivm.execute", 1.1, 1.5),
    Span(6, 5, "engine.execute", 1.2, 1.4),
    Span(4, 3, "op.tick", 1.0, 1.6),
    Span(8, 7, "engine.execute", 1.7, 1.9),
    Span(7, 3, "op.request", 1.6, 2.0),
    Span(9, 3, "bench.check", 2.0, 2.5),
    Span(3, None, "bench.loop", 1.0, 3.0),
]


def test_render_shows_self_time_and_share_per_section():
    text = render("w", SPANS)
    assert text.splitlines() == [
        "w setup: wall 1000.0 ms",
        "  (benchmark)               500.0 ms   50.0%",
        "  engine.load               500.0 ms   50.0%",
        "w loop: wall 2000.0 ms",
        "  (benchmark)               900.0 ms   45.0%",
        "  (checks)                  500.0 ms   25.0%",
        "  engine.execute            400.0 ms   20.0%",
        "  ivm.execute               200.0 ms   10.0%",
        "w ticks: wall 600.0 ms",
        "  (benchmark)               200.0 ms   33.3%",
        "  ivm.execute               200.0 ms   33.3%",
        "  engine.execute            200.0 ms   33.3%",
        "w requests: wall 400.0 ms",
        "  (benchmark)               200.0 ms   50.0%",
        "  engine.execute            200.0 ms   50.0%",
    ]


def test_useful_fraction_counts_rounds_that_ran_a_join():
    extra = SPANS + [Span(10, 4, "ivm.execute", 1.5, 1.55)]
    assert useful_fraction(extra) == 0.5
    assert useful_fraction([]) == 0.0
