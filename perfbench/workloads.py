"""The benchmark's three workloads, each a single-client closed loop.

Every workload is built from its seed alone and runs on a logical clock
with no threads.  It yields *units* -- lists of :class:`Op` -- that the
runner (``run.py``) executes in order, timing each op.  An op is a
``tick`` (absorb modifications and run one maintenance step) or a
``request`` (a user waits for an answer).  An op's ``check`` runs after
it, outside the timed region, and both verifies the output and folds the
op's deterministic counts into the workload.

* ``plan_search`` -- scheduling instances over PartSupp/Supplier/Nation
  with cost curves calibrated on the live paper view.  A request is one
  A* search for the optimal LGM plan; a tick is one ``simulate_policy``
  run of the ONLINE or the NAIVE policy over the whole instance.
* ``live_refresh`` -- the paper's MIN view under ONLINE.  A tick applies
  the step's PartSupp/Supplier updates and calls ``ViewMaintainer.step``;
  a request refreshes the view and reads it.
* ``fleet_rounds`` -- a shared-scan ``MaintenanceCoordinator`` over 160
  views.  A tick applies one round of updates and steps every view; a
  request refreshes a dashboard's views and reads them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core import astar as astar_mod
from repro.core import simulator as simulator_mod
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import ProblemInstance
from repro.engine.block import DEFAULT_BLOCK_SIZE
from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.query import AggregateSpec, QuerySpec
from repro.engine.table import Table
from repro.experiments.common import CALIBRATION_BATCHES, DEFAULT_SEED, paper_view_spec
from repro.ivm import calibration as calibration_mod
from repro.ivm.maintainer import ViewMaintainer
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.ivm.sharedscan import SharedScanRound
from repro.ivm.view import MaterializedView
from repro.tpcr import gen as gen_mod
from repro.tpcr.updates import (
    NationRegionUpdater,
    PartSuppCostUpdater,
    SupplierNationUpdater,
    TableUpdater,
)
from repro.workloads.arrivals import poisson_arrivals

from spans import Target

#: Engine configuration pinned for every database the benchmark builds.
WORKERS = 0
BACKEND = "thread"
BLOCK_SIZE = DEFAULT_BLOCK_SIZE

#: Update-stream seed for calibration.  Like the data, the calibrated
#: cost curves are the same for every workload seed: they are the
#: planner's model of the system, and curves that moved with the seed
#: would change how hard every scheduling instance is.
CALIBRATION_SEED = 991

#: Poisson means of modifications per step: PartSupp, Supplier, Nation.
ARRIVAL_MEANS = (80, 1, 0.2)


@dataclass
class Op:
    kind: str  # "tick" or "request"
    run: Callable[[], object]
    mods: int = 0
    check: Callable[[object], None] | None = None


def derive(seed: int, *parts) -> int:
    """A sub-seed for one purpose, fixed by the workload seed."""
    return random.Random("/".join(map(str, (seed, *parts)))).getrandbits(32)


def new_database() -> Database:
    return Database(block_size=BLOCK_SIZE, workers=WORKERS, parallel_backend=BACKEND)


def load_paper_tables(db: Database, scale: float) -> None:
    """TPC-R region/nation/supplier/partsupp with the paper's indexes.

    The data is the paper's database at ``scale`` (dbgen's default seed)
    for every workload seed: the seed drives what happens to it.
    """
    gen_mod.load_tpcr(db, scale=scale, seed=DEFAULT_SEED)
    db.table("supplier").create_index("suppkey")
    db.table("nation").create_index("nationkey")
    db.table("region").create_index("regionkey")


def next_request(rng: random.Random, every: int) -> int:
    """Ticks until the next request: ``every``, jittered by up to a tenth."""
    jitter = max(1, every // 10)
    return every + rng.randint(-jitter, jitter)


class Workload:
    """Base class: seed, check failures and deterministic counts."""

    name = ""
    #: Units in one episode: a fresh set-up followed by this many units.
    episode_units = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.errors: list[str] = []
        self.counts: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def charge(self, sim_ms: float) -> None:
        """Add one maintenance call's simulated cost to ``sim_cost``."""
        self.count("sim_cost", sim_ms)

    def setup(self) -> None:
        raise NotImplementedError

    def units(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def episode_counts(self) -> dict[str, float]:
        """Deterministic counts, taken when the episode's units are done."""
        return dict(self.counts)

    def finish(self) -> None:
        """Final output checks, outside the timed region."""

    def counter(self):
        """The engine's cost counter the timed loop charges, if any."""
        return None

    @staticmethod
    def targets() -> list[Target]:
        """Layer functions the traced run wraps in spans."""
        return [
            Target(gen_mod, "load_tpcr", "engine.load"),
            Target(Table, "create_index", "engine.load"),
            Target(Database, "execute", "engine.execute"),
            Target(calibration_mod, "measure_cost_function", "core.calibrate"),
            Target(MaterializedView, "__init__", "ivm.materialize"),
            Target(
                MaterializedView, "apply_insert_rows", "ivm.fold",
                lambda args, _: len(args[1]),
            ),
            Target(
                MaterializedView, "apply_delete_rows", "ivm.fold",
                lambda args, _: len(args[1]),
            ),
            Target(OnlinePolicy, "decide", "core.decide"),
            Target(NaivePolicy, "decide", "core.decide"),
            Target(TableUpdater, "apply", "tpcr.ingest", lambda args, _: args[1]),
            Target(ViewMaintainer, "plan_step", "ivm.plan_step"),
            Target(ViewMaintainer, "plan_refresh", "ivm.plan_step"),
            Target(ViewMaintainer, "execute_planned", "ivm.execute"),
            Target(ViewMaintainer, "step", "ivm.round"),
            Target(ViewMaintainer, "refresh", "ivm.round"),
            Target(MaintenanceCoordinator, "step", "ivm.round"),
            Target(MaintenanceCoordinator, "refresh", "ivm.round"),
            Target(SharedScanRound, "run", "ivm.scan"),
            Target(astar_mod, "find_optimal_lgm_plan", "core.astar"),
            Target(simulator_mod, "simulate_policy", "core.simulate"),
        ]


# ----------------------------------------------------------------------
# plan_search


class PlanSearch(Workload):
    name = "plan_search"
    scale = 0.01
    #: Horizons cycle over this grid, so every run covers the same range
    #: of search sizes: A* takes ~5 ms at 50 and 0.03-0.3 s at 100.
    #: Search effort is heavy-tailed in the horizon; longer horizons let
    #: a few rare instances decide a run's throughput, p90 and memory.
    horizons = (50, 60, 70, 80, 90, 100)
    episode_units = 24
    #: Instances simulated under ONLINE and NAIVE per A* search: the
    #: searched one and fresh ones of the same horizon.  Simulation is
    #: cheap; the extra ticks put more samples beyond ``tick_p99``.
    simulated_per_search = 3

    def setup(self) -> None:
        db = new_database()
        load_paper_tables(db, self.scale)
        view = MaterializedView("paper_view", db, paper_view_spec())
        measure = calibration_mod.measure_cost_function
        cal_ps = measure(view, "PS", (1, 5, 10, 40, 120),
                         PartSuppCostUpdater(db.table("partsupp"), seed=CALIBRATION_SEED))
        cal_s = measure(view, "S", (1, 4, 12, 30),
                        SupplierNationUpdater(db.table("supplier"), seed=CALIBRATION_SEED))
        cal_n = measure(view, "N", (1, 2, 6, 12),
                        NationRegionUpdater(db.table("nation"), seed=CALIBRATION_SEED))
        self.costs = (cal_ps.tabulated, cal_s.tabulated, cal_n.tabulated)
        # Room for a ~30-update Supplier batch and a ~10-update Nation
        # batch at once, as in the three-way experiment.
        self.limit = (cal_s.tabulated(30) + cal_n.tabulated(10)) * 1.15

    def instance(self, i: int, copy: int = 0) -> ProblemInstance:
        """Instance ``i``, or a fresh ``copy`` of its horizon."""
        horizon = self.horizons[i % len(self.horizons)]
        arrivals = poisson_arrivals(
            ARRIVAL_MEANS, horizon + 1, seed=derive(self.seed, "arrivals", i, copy)
        )
        return ProblemInstance(self.costs, self.limit, arrivals)

    def units(self) -> Iterator[list[Op]]:
        for i in itertools.count():
            problem = self.instance(i)
            ops = [Op(
                "request",
                lambda p=problem: astar_mod.find_optimal_lgm_plan(p),
                check=lambda result, p=problem: self._check_plan(p, result),
            )]
            simulated = [problem] + [
                self.instance(i, copy) for copy in range(1, self.simulated_per_search)
            ]
            for p, make in itertools.product(simulated, (OnlinePolicy, NaivePolicy)):
                ops.append(Op(
                    "tick",
                    lambda p=p, m=make: simulator_mod.simulate_policy(p, m()),
                    mods=sum(map(sum, p.arrivals)),
                    check=lambda trace, p=p: self._check_trace(p, trace),
                ))
            yield ops

    def _check_plan(self, problem: ProblemInstance, result) -> None:
        try:
            trace = simulator_mod.execute_plan(problem, result.plan)
        except ValueError as exc:
            self.expect(False, f"A* plan invalid: {exc}")
            return
        self.expect(
            abs(trace.total_cost - result.cost) <= 1e-6 * max(1.0, result.cost),
            f"A* cost {result.cost} != re-simulated {trace.total_cost}",
        )
        self.count("sim_cost", result.cost)
        self.count("core.astar.expanded", result.expanded)
        self.count("core.astar.generated", result.generated)

    def _check_trace(self, problem: ProblemInstance, trace) -> None:
        """A policy's plan is valid and re-executes to the simulated cost."""
        try:
            replay = simulator_mod.execute_plan(problem, trace.plan)
        except ValueError as exc:
            self.expect(False, f"{trace.metadata.get('policy')} plan invalid: {exc}")
            return
        self.expect(
            abs(replay.total_cost - trace.total_cost) <= 1e-9 * max(1.0, trace.total_cost),
            f"simulated cost {trace.total_cost} != re-executed {replay.total_cost}",
        )


# ----------------------------------------------------------------------
# live_refresh


class LiveRefresh(Workload):
    name = "live_refresh"
    scale = 0.02
    #: Ticks between refresh requests (seeded jitter of up to a tenth
    #: either way); sparse enough that ONLINE flushes between them.
    refresh_every = 30
    #: Every this many refreshes, contents are compared with a recomputation.
    check_every = 10
    episode_units = 1000

    def setup(self) -> None:
        db = new_database()
        load_paper_tables(db, self.scale)
        view = MaterializedView("paper_view", db, paper_view_spec())
        measure = calibration_mod.measure_cost_function
        cal_ps = measure(view, "PS", CALIBRATION_BATCHES,
                         PartSuppCostUpdater(db.table("partsupp"), seed=CALIBRATION_SEED))
        cal_s = measure(view, "S", CALIBRATION_BATCHES,
                        SupplierNationUpdater(db.table("supplier"), seed=CALIBRATION_SEED))
        useed = derive(self.seed, "updates")
        self.ps = PartSuppCostUpdater(db.table("partsupp"), seed=useed)
        self.s = SupplierNationUpdater(db.table("supplier"), seed=useed)
        costs = (cal_ps.tabulated, cal_s.tabulated)
        self.maintainer = ViewMaintainer(
            view, costs, limit=cal_s.tabulated(30) * 1.15,
            policy=OnlinePolicy(), scheduled_aliases=("PS", "S"),
        )
        self.db, self.view = db, view

    def units(self) -> Iterator[list[Op]]:
        rng = random.Random(derive(self.seed, "stream"))
        refreshes = 0
        due = next_request(rng, self.refresh_every)
        for tick in itertools.count(1):
            ps_k, s_k = poisson_arrivals(ARRIVAL_MEANS[:2], 1, seed=rng.getrandbits(32))[0]
            ops = [Op(
                "tick", lambda a=ps_k, b=s_k: self._tick(a, b), mods=ps_k + s_k,
                check=self.charge,
            )]
            if tick == due:
                due += next_request(rng, self.refresh_every)
                refreshes += 1
                check = refreshes % self.check_every == 0
                ops.append(Op(
                    "request", self._refresh,
                    check=(lambda value, c=check: self._check_read(value, c)),
                ))
            yield ops

    def _tick(self, ps_k: int, s_k: int) -> float:
        self.ps.apply(ps_k)
        self.s.apply(s_k)
        with self.db.counter.window() as window:
            self.maintainer.step()
        return window.elapsed_ms

    def _refresh(self):
        with self.db.counter.window() as window:
            self.maintainer.refresh()
        return self.view.scalar(), window.elapsed_ms

    def _check_read(self, result, full: bool) -> None:
        value, sim_ms = result
        self.count("sim_cost", sim_ms)
        if full:
            expected = self.view.recompute()
            self.expect(self.view.contents() == expected, "view != recompute()")
            self.expect(value == expected.get((), None), "read != recompute()")

    def episode_counts(self) -> dict[str, float]:
        counts = dict(self.counts)
        counts["ivm.flushes"] = self.maintainer.ledger.flushes
        return counts

    def counter(self):
        return self.db.counter

    def finish(self) -> None:
        self.maintainer.refresh()
        self.expect(self.view.contents() == self.view.recompute(),
                    "final view != recompute()")


# ----------------------------------------------------------------------
# fleet_rounds

#: Per table: alias, updater, filter key and its largest value per unit
#: of scale, then aggregates ``(func, value, group-by)`` that read the
#: column the updater rewrites, and aggregates that ignore it.  SUM stays
#: on INT columns so incremental and from-scratch folds agree exactly.
FLEET_TABLES = (
    ("PS", "partsupp", PartSuppCostUpdater, "PS.partkey", 200_000,
     (("min", "PS.supplycost", "PS.suppkey"),
      ("max", "PS.supplycost", "PS.suppkey"),
      ("count", "PS.supplycost", "PS.partkey")),
     (("sum", "PS.availqty", "PS.suppkey"),
      ("max", "PS.availqty", "PS.partkey"),
      ("count", "PS.availqty", "PS.suppkey"))),
    ("S", "supplier", SupplierNationUpdater, "S.suppkey", 10_000,
     (("count", "S.suppkey", "S.nationkey"),
      ("max", "S.acctbal", "S.nationkey")),
     (("min", "S.acctbal", None),
      ("sum", "S.suppkey", None))),
    ("N", "nation", NationRegionUpdater, "N.nationkey", None,
     (("count", "N.name", "N.regionkey"),
      ("min", "N.nationkey", "N.regionkey")),
     (("min", "N.nationkey", None),
      ("count", "N.name", None))),
)
#: Per-alias cost model the fleet's policies schedule against.
FLEET_COSTS = {
    "PS": LinearCost(slope=0.05, setup=2.0),
    "S": LinearCost(slope=2.0, setup=5.0),
    "N": LinearCost(slope=8.0, setup=5.0),
}


class FleetRounds(Workload):
    name = "fleet_rounds"
    scale = 0.002
    views = 160
    #: The first views are the paper's four-way join over PS/S/N/R.
    join_views = 2
    #: Share of single-table views whose definition repeats an earlier one.
    duplicate_share = 0.25
    #: Rounds between dashboard refreshes (seeded jitter as in
    #: live_refresh), and views per dashboard.
    refresh_every = 3
    dashboard_size = 4
    check_every = 4
    episode_units = 340

    def definitions(self, rng: random.Random) -> list[tuple[QuerySpec, tuple[str, ...], str]]:
        """Seeded view definitions: ``(query, scheduled aliases, policy)``.

        Single-table views cycle through every (table, aggregate) choice
        and both policies, so each seed builds the same mix: only filter
        bounds and which earlier view a duplicate repeats come from the
        seed.  Every ``1 / duplicate_share``-th view of a choice repeats
        an earlier view of the same choice.
        """
        choices = [
            (alias, table, key, per_scale, agg)
            for alias, table, _, key, per_scale, sensitive, insensitive in FLEET_TABLES
            for agg in sensitive + insensitive
        ]
        defs = [(paper_view_spec(), ("PS", "S", "N"), "online" if i % 2 else "naive")
                for i in range(self.join_views)]
        made: dict[int, list[QuerySpec]] = {}
        repeat_every = round(1 / self.duplicate_share)
        for i in range(self.views - self.join_views):
            c = i % len(choices)
            alias, table, key, per_scale, (func, value, group) = choices[c]
            earlier = made.setdefault(c, [])
            nth = i // len(choices)
            policy = ("naive", "online")[(nth + c) % 2]
            if nth % repeat_every == repeat_every - 1:
                defs.append((rng.choice(earlier), (alias,), policy))
                continue
            top = int(per_scale * self.scale) if per_scale else 24
            earlier.append(QuerySpec(
                base_alias=alias,
                base_table=table,
                filters=(col(key) <= lit(rng.randint(top // 8, top // 2)),),
                aggregate=AggregateSpec(
                    func=func, value=col(value),
                    group_by=(group,) if group else (),
                ),
            ))
            defs.append((earlier[-1], (alias,), policy))
        return defs

    def setup(self) -> None:
        db = new_database()
        load_paper_tables(db, self.scale)
        rng = random.Random(derive(self.seed, "views"))
        coordinator = MaintenanceCoordinator(db)
        for i, (spec, aliases, policy) in enumerate(self.definitions(rng)):
            costs = tuple(FLEET_COSTS[a] for a in aliases)
            per_round = sum(
                f(m) for f, m in zip(costs, ARRIVAL_MEANS) if m >= 1
            )
            coordinator.add_view(ViewConfig(
                name=f"v{i:03d}",
                query=spec,
                policy=OnlinePolicy() if policy == "online" else NaivePolicy(),
                cost_functions=costs,
                limit=per_round * (8 + 16 * (i % 8) / 7),
                scheduled_aliases=aliases,
            ))
        useed = derive(self.seed, "updates")
        self.updaters = [
            updater(db.table(table), seed=useed)
            for _, table, updater, *_ in FLEET_TABLES
        ]
        self.db, self.coordinator = db, coordinator

    def units(self) -> Iterator[list[Op]]:
        rng = random.Random(derive(self.seed, "stream"))
        # Dashboards read single-table views: the two join views' refresh
        # cost would make request latency bimodal near its p90.
        names = self.coordinator.views[self.join_views:]
        refreshes = 0
        due = next_request(rng, self.refresh_every)
        for tick in itertools.count(1):
            counts = poisson_arrivals(ARRIVAL_MEANS, 1, seed=rng.getrandbits(32))[0]
            ops = [Op(
                "tick", lambda c=counts: self._round(c), mods=sum(counts),
                check=self.charge,
            )]
            if tick == due:
                due += next_request(rng, self.refresh_every)
                refreshes += 1
                dashboard = tuple(rng.sample(names, self.dashboard_size))
                check = refreshes % self.check_every == 0
                ops.append(Op(
                    "request", lambda d=dashboard: self._refresh(d),
                    check=lambda result, d=dashboard, c=check:
                        self._check_read(d, result, c),
                ))
            yield ops

    def _round(self, counts) -> float:
        for updater, k in zip(self.updaters, counts):
            updater.apply(k)
        with self.db.counter.window() as window:
            self.coordinator.step()
        return window.elapsed_ms

    def _refresh(self, names):
        with self.db.counter.window() as window:
            self.coordinator.refresh(names)
            contents = [self.coordinator.maintainer(n).view.contents() for n in names]
        return contents, window.elapsed_ms

    def _check_read(self, names, result, full: bool) -> None:
        contents, sim_ms = result
        self.count("sim_cost", sim_ms)
        if full:
            for name, read in zip(names, contents):
                view = self.coordinator.maintainer(name).view
                self.expect(read == view.recompute(), f"{name}: read != recompute()")

    def episode_counts(self) -> dict[str, float]:
        counts = dict(self.counts)
        counts["ivm.flushes"] = sum(
            m.ledger.flushes for _, m in self.coordinator.iter_maintainers()
        )
        return counts

    def counter(self):
        return self.db.counter

    def finish(self) -> None:
        self.coordinator.refresh()
        for name, maintainer in self.coordinator.iter_maintainers():
            view = maintainer.view
            self.expect(view.contents() == view.recompute(),
                        f"final {name} != recompute()")


WORKLOADS = {w.name: w for w in (PlanSearch, LiveRefresh, FleetRounds)}
