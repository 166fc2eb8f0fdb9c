"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload live_refresh --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
A run is a series of *episodes*, each a fresh set-up followed by the
workload's fixed number of units, with inputs from a sub-seed of
``--seed``.  Every episode does the same amount of work, so a faster
program runs more episodes rather than longer ones.

With ``--trace 0`` the run measures the end-to-end metrics with every
kind of telemetry off, running episodes until ``--seconds`` have passed,
at least three have run and every percentile has its samples; times
are scaled by host-speed probes taken between ops (:func:`probe`).  With
``--trace 1`` it runs the first episode twice, untraced and then with
the benchmark's spans, the repo's metrics recorder and a decision log
on, and reports per-layer metrics; its spans are written to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Episodes per ``--trace 0`` run at least; ``setup_s`` is their median.
MIN_EPISODES = 3
#: Percentiles reported for ticks and for requests.
TICK_Q = 99
REQUEST_Q = 90
#: A run that still lacks samples after this many seconds fails.
RUN_CAP_S = 150.0
#: Op seconds between two host-speed probes (see :func:`probe`).
PROBE_EVERY_S = 0.03
#: Probes on either side of an op that give its host speed.
PROBE_WINDOW = 2
#: What :func:`probe` takes on the reference host, a 2-core x86-64 VM
#: with CPython 3.  Timings are scaled to that host's speed.
PROBE_NOMINAL_S = 0.6e-3


#: Read before each probe to push the probe's data out of the per-core
#: caches, whatever the program's last op touched (8 MB: four times the
#: reference host's per-core L2).  Filled, so its pages are real memory.
_EVICT = bytearray(b"\x01") * (8 << 20)


def _probe_work() -> None:
    table: dict[int, int] = {}
    rows = []
    for i in range(800):
        key = (i * 7919) % 509
        table[key] = min(table.get(key, i), i)
        rows.append((key, i & 255, str(i)))
    rows.sort()
    sorted(table.items(), key=lambda kv: -kv[1])


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes on this host now.

    The program is pure Python, and on a shared host its speed swings by
    tens of percent within seconds.  Probes taken between ops measure
    that swing, and each op's time is scaled by the probes around it
    (:meth:`Episode.speed`).  A probe first reads ``_EVICT``, so its
    timed work starts from much the same cache state whatever the
    program did before: after a ``fleet_rounds`` round a probe took 7%
    longer than after another probe, against 31% without the read.
    """
    gc.disable()  # a collection would time the program's heap
    try:
        _EVICT.find(0)
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Episode:
    #: Seconds the set-up took; probes 0 and 1 are taken around it.
    setup_raw_s: float = 0.0
    #: ``(kind, seconds, probes taken before it)`` of every op that ran.
    ops: list[tuple[str, float, int]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mods: int = 0
    counts: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    setup_calls: dict = field(default_factory=dict)

    def speed(self, index: int) -> float:
        """Host slowdown against the reference host between probes
        ``index - 1`` and ``index``: the median of the nearest probes
        over ``PROBE_NOMINAL_S``."""
        near = self.probes[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW]
        return statistics.median(near) / PROBE_NOMINAL_S

    @property
    def setup_s(self) -> float:
        return self.setup_raw_s / self.speed(1)

    def times(self, kind: str | None = None, scaled: bool = True) -> list[float]:
        """Seconds of each op of ``kind`` (every op if None), scaled to
        the reference host unless ``scaled`` is false."""
        return [
            seconds / self.speed(index) if scaled else seconds
            for k, seconds, index in self.ops
            if kind is None or k == kind
        ]

    def busy_s(self, scaled: bool = True) -> float:
        return sum(self.times(scaled=scaled))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: str, seed: int, trace: int) -> dict:
    import numpy

    from workloads import BACKEND, BLOCK_SIZE, WORKERS

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workers": WORKERS,
        "backend": BACKEND,
        "block_size": BLOCK_SIZE,
        "commit": git_commit(),
    }


def run_episode(cls, seed: int, tracer=None, on_check=nullcontext) -> Episode:
    """Set up one workload instance and run its units, timing each op.

    With a ``tracer``, the set-up and the loop run in ``bench.setup`` and
    ``bench.loop`` spans and each op in a span named after its kind.
    ``on_check`` wraps each op's check and the final checks, so a traced
    run can keep them out of its layer measurements.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    clock = time.perf_counter
    workload = cls(seed)
    episode = Episode()
    gc.collect()
    episode.probes.append(probe())
    with span("bench.setup"):
        start = clock()
        workload.setup()
        episode.setup_raw_s = clock() - start
    episode.probes.append(probe())
    if tracer is not None:
        episode.setup_calls = dict(tracer.counts)
        tracer.counts.clear()
    counter = workload.counter()
    charges_before = counter.snapshot() if counter is not None else {}
    busy = probed_at = 0.0
    with span("bench.loop"):
        for unit in itertools.islice(workload.units(), workload.episode_units):
            if busy - probed_at >= PROBE_EVERY_S:
                with span("bench.probe"):
                    episode.probes.append(probe())
                probed_at = busy
            for op in unit:
                episode.attempted += 1
                start = clock()
                try:
                    with span(f"op.{op.kind}"):
                        value = op.run()
                except Exception:
                    episode.failed += 1
                    if episode.failed <= 3:
                        traceback.print_exc(file=sys.stderr)
                    continue
                elapsed = clock() - start
                busy += elapsed
                episode.mods += op.mods
                episode.ops.append((op.kind, elapsed, len(episode.probes)))
                if op.check is not None:
                    with on_check():
                        try:
                            op.check(value)
                        except Exception as exc:
                            workload.expect(False, f"check raised {exc!r}")
        episode.counts = workload.episode_counts()
        if counter is not None:
            after = counter.snapshot()
            for name in after:
                episode.counts[f"engine.charges.{name}"] = after[name] - charges_before[name]
        with on_check():
            workload.finish()
    episode.errors = workload.errors
    return episode


def episode_seed(seed: int, index: int) -> int:
    from workloads import derive

    return derive(seed, "episode", index)


def end_to_end(cls, seed: int, seconds: float):
    """``(episodes, metrics, notes)`` of an untraced run."""
    from stats import percentile, samples_needed

    episodes: list[Episode] = []
    begin = time.perf_counter()

    def pooled(kind, scaled=True):
        return [x for e in episodes for x in e.times(kind, scaled)]

    while (
        len(episodes) < MIN_EPISODES
        or time.perf_counter() - begin < seconds
        or len(pooled("tick")) < samples_needed(TICK_Q)
        or len(pooled("request")) < samples_needed(REQUEST_Q)
    ):
        if time.perf_counter() - begin > RUN_CAP_S:
            raise RuntimeError(f"too few samples after {RUN_CAP_S:.0f} s")
        episodes.append(run_episode(cls, episode_seed(seed, len(episodes))))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def timings(scaled):
        def ms(kind, q):
            return 1e3 * percentile(pooled(kind, scaled), q)

        setup = (e.setup_s if scaled else e.setup_raw_s for e in episodes)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "mods_per_s": (
                sum(e.mods for e in episodes) / sum(e.busy_s(scaled) for e in episodes),
                "1/s",
            ),
            "tick_p50_ms": (ms("tick", 50), "ms"),
            f"tick_p{TICK_Q}_ms": (ms("tick", TICK_Q), "ms"),
            "request_p50_ms": (ms("request", 50), "ms"),
            f"request_p{REQUEST_Q}_ms": (ms("request", REQUEST_Q), "ms"),
        }

    metrics = {
        **timings(scaled=True),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "sim_cost": (episodes[0].counts["sim_cost"], "sim_ms"),
    }
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    probes = [p for e in episodes for p in e.probes]
    unscaled = {name: round(value, 6) for name, (value, _) in timings(scaled=False).items()}
    notes = [
        f"episodes: {len(episodes)}; samples: {len(pooled('tick'))} ticks, "
        f"{len(pooled('request'))} requests",
        f"failed_frac: {failed / attempted:.6f}",
        f"host speed: median of {len(probes)} probes "
        f"{statistics.median(probes) / PROBE_NOMINAL_S:.4f} x reference, "
        f"range {min(probes) / PROBE_NOMINAL_S:.4f}-{max(probes) / PROBE_NOMINAL_S:.4f}",
        "unscaled timings: " + json.dumps(unscaled),
        "counts (first episode): " + json.dumps(episodes[0].counts, sort_keys=True),
    ]
    return episodes, metrics, notes


def per_layer(cls, seed: int, workload_name: str):
    """``(episodes, metrics, notes)`` of a traced run of the first episode."""
    from repro import obs
    from repro.obs import decisions

    import report
    from spans import Tracer, write_spans

    untraced = run_episode(cls, episode_seed(seed, 0))

    tracer = Tracer()
    recorder = obs.Recorder(trace=False)
    log = decisions.DecisionLog()

    @contextmanager
    def quiet_check():
        with tracer.span("bench.check"), tracer.pause():
            obs.install(None)
            previous = decisions.set_decision_log(None)
            try:
                yield
            finally:
                decisions.set_decision_log(previous)
                obs.install(recorder)

    obs.install(recorder)
    previous_log = decisions.set_decision_log(log)
    try:
        with tracer.patched(cls.targets()):
            traced = run_episode(cls, episode_seed(seed, 0), tracer, quiet_check)
    finally:
        decisions.set_decision_log(previous_log)
        obs.install(None)

    metrics = report.layer_metrics(tracer.spans, traced, tracer.counts, recorder, log)
    metrics["obs.overhead_frac"] = (traced.busy_s() / untraced.busy_s() - 1, "fraction")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    write_spans(
        out / f"spans-{workload_name}-seed{seed}.jsonl",
        tracer.spans,
        fingerprint(workload_name, seed, 1),
    )
    notes = report.render(workload_name, tracer.spans).splitlines()
    if traced.counts != untraced.counts:
        traced.errors.append("deterministic counts differ between traced and untraced runs")
    return [untraced, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    print("config: " + json.dumps(fingerprint(args.workload, args.seed, args.trace)))
    if args.trace:
        episodes, metrics, notes = per_layer(cls, args.seed, args.workload)
    else:
        episodes, metrics, notes = end_to_end(cls, args.seed, args.seconds)
    errors = [error for e in episodes for error in e.errors]
    for line in notes + [f"check failed: {error}" for error in errors]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
