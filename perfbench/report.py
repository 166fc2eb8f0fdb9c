"""Per-layer numbers from a traced run's spans.

    python3 perfbench/report.py [perfbench/out/spans-*.jsonl ...]

prints, for each spans file a traced run wrote, each layer's self time
and its share of the phase's wall time, for the set-up phase and the
timed loop.  ``(benchmark)`` is the runner's own time between calls and
``(checks)`` the output checks, which run outside the timed region; with
them the rows add up to the phase's wall time.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Span, read_spans, self_times, subtree

#: Layers timed inside the loop; their ``.ms`` metric is self time.
LOOP_LAYERS = (
    "core.astar", "core.simulate", "core.decide", "engine.execute",
    "tpcr.ingest", "ivm.round", "ivm.plan_step", "ivm.execute", "ivm.fold",
    "ivm.scan",
)
#: Set-up steps; their ``.ms`` metric is the whole step's duration.
SETUP_LAYERS = ("engine.load", "core.calibrate", "ivm.materialize")
CHARGE_CLASSES = (
    "page_reads", "tuple_cpu", "compares", "index_probes", "hash_builds",
    "hash_probes", "row_writes", "index_maintains", "agg_updates",
    "sort_items", "startups",
)
LABELS = {"bench.setup": "(benchmark)", "bench.loop": "(benchmark)",
          "bench.probe": "(benchmark)", "bench.check": "(checks)",
          "op.tick": "(benchmark)", "op.request": "(benchmark)"}


def _root(spans: list[Span], name: str) -> Span:
    return next(s for s in spans if s.name == name and s.parent is None)


def phase_self_times(spans: list[Span], phase: str) -> tuple[float, dict[str, float]]:
    """``(phase wall seconds, self seconds per span name)``."""
    root = _root(spans, phase)
    return root.duration, self_times(subtree(spans, root))


def layer_metrics(spans, episode, loop_calls, recorder, log) -> dict:
    """Per-layer metrics of a traced episode as ``{name: (value, unit)}``.

    ``loop_calls`` counts wrapped calls (and ``<span>.n`` tallies) in the
    loop; ``episode.setup_calls`` those in the set-up.
    """
    spans = list(spans)
    counts = episode.counts
    setup = _root(spans, "bench.setup")
    loop_wall, selfs = phase_self_times(spans, "bench.loop")
    metrics: dict[str, tuple[float, str]] = {}
    for layer in SETUP_LAYERS:
        total = sum(s.duration for s in spans
                    if s.name == layer and s.parent == setup.id)
        metrics[f"{layer}.ms"] = (1e3 * total, "ms")
    for layer in LOOP_LAYERS:
        metrics[f"{layer}.ms"] = (1e3 * selfs.get(layer, 0.0), "ms")
    expanded = counts.get("core.astar.expanded", 0)
    metrics["core.astar.expanded"] = (expanded, "count")
    metrics["core.astar.generated"] = (counts.get("core.astar.generated", 0), "count")
    metrics["core.astar.us_per_expanded"] = (
        1e6 * selfs.get("core.astar", 0.0) / expanded if expanded else 0.0, "us"
    )
    metrics["core.decide.calls"] = (loop_calls.get("core.decide", 0), "count")
    metrics["engine.execute.calls"] = (loop_calls.get("engine.execute", 0), "count")
    for name in CHARGE_CLASSES:
        metrics[f"engine.charges.{name}"] = (counts.get(f"engine.charges.{name}", 0), "count")
    metrics["tpcr.ingest.mods"] = (loop_calls.get("tpcr.ingest.n", 0), "count")
    metrics["ivm.fold.rows"] = (loop_calls.get("ivm.fold.n", 0), "count")
    scan = recorder.registry.get("ivm.coordinator.scan_ms")
    metrics["ivm.coordinator.scan_ms"] = (scan.total if scan else 0.0, "sim_ms")
    metrics["ivm.materialize.views"] = (episode.setup_calls.get("ivm.materialize", 0), "count")
    metrics["ivm.flushes"] = (counts.get("ivm.flushes", 0), "count")
    metrics["ivm.useful_frac"] = (useful_fraction(spans), "fraction")
    for name in ("ivm.skip.fingerprint", "ivm.skip.empty"):
        counter = recorder.registry.get(name)
        metrics[name] = (counter.value if counter else 0, "count")
    metrics["obs.decisions.kept"] = (len(log), "count")
    metrics["obs.decisions.dropped"] = (log.dropped, "count")
    metrics["obs.registry.series"] = (len(recorder.registry), "count")
    metrics["bench.loop.ms"] = (1e3 * loop_wall, "ms")
    metrics["bench.untimed.ms"] = (
        1e3 * sum(selfs.get(name, 0.0) for name in ("bench.loop", "bench.probe", "bench.check")),
        "ms",
    )
    return metrics


def useful_fraction(spans) -> float:
    """Planned view-rounds (``ivm.execute``) that ran a delta-join."""
    rounds = {s.id for s in spans if s.name == "ivm.execute"}
    if not rounds:
        return 0.0
    joined = {s.parent for s in spans if s.name == "engine.execute"} & rounds
    return len(joined) / len(rounds)


def op_self_times(spans: list[Span], kind: str) -> tuple[float, dict[str, float]]:
    """``(summed wall seconds, self seconds per span name)`` of every op
    of one kind (``tick`` or ``request``)."""
    ops = [s for s in spans if s.name == f"op.{kind}"]
    inside: list[Span] = []
    for op in ops:
        inside += subtree(spans, op)
    return sum(op.duration for op in ops), self_times(inside)


def render(workload: str, spans) -> str:
    """Self time and share of wall time per layer: for the set-up, the
    whole loop, and the loop's ticks and requests on their own."""
    spans = list(spans)
    sections = [
        ("setup", phase_self_times(spans, "bench.setup")),
        ("loop", phase_self_times(spans, "bench.loop")),
        ("ticks", op_self_times(spans, "tick")),
        ("requests", op_self_times(spans, "request")),
    ]
    lines = []
    for title, (wall, selfs) in sections:
        lines.append(f"{workload} {title}: wall {1e3 * wall:.1f} ms")
        merged: dict[str, float] = {}
        for name, seconds in selfs.items():
            label = LABELS.get(name, name)
            merged[label] = merged.get(label, 0.0) + seconds
        for label, seconds in sorted(merged.items(), key=lambda kv: -kv[1]):
            share = seconds / wall if wall else 0.0
            lines.append(f"  {label:18s} {1e3 * seconds:12.1f} ms {100 * share:6.1f}%")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    paths = argv or sorted(str(p) for p in (Path(__file__).parent / "out").glob("spans-*.jsonl"))
    if not paths:
        print("no spans files; run perfbench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    for path in paths:
        header, spans = read_spans(path)
        print(f"# {path}: seed {header.get('seed')}, commit {header.get('commit')}")
        print(render(header.get("workload", "?"), spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
