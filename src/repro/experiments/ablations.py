"""Ablations of the reproduction's design choices (DESIGN.md section 5).

Four studies beyond the paper's own figures:

* :func:`run_astar_heuristic_ablation` -- node expansions of A* with the
  separable cost-to-go heuristic vs ``h = 0`` (Dijkstra); same optimal
  cost, fewer expansions;
* :func:`run_plan_class_ablation` -- what each LGM ingredient buys:
  EAGER (violates laziness: flushes every step), NAIVE (lazy + greedy but
  maximal instead of minimal), OPT_LGM (all three);
* :func:`run_estimator_ablation` -- ONLINE's TimeToFull estimator quality:
  EWMA vs windowed average vs a fixed-rate oracle, on stable and unstable
  streams.  Explains Figure 7's ONLINE gap;
* :func:`run_cost_family_study` -- how much asymmetric scheduling saves as
  the cost-function family varies (linear with setup, block-I/O staircase,
  concave): the setup-to-slope ratio, not the family, is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import BlockIOCost, ConcaveCost, LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy, TimeToFullEstimator
from repro.core.policies import Policy
from repro.core.problem import ProblemInstance, Vector
from repro.core.simulator import simulate_policy
from repro.experiments import common
from repro.experiments.reporting import format_table
from repro.workloads.arrivals import (
    FAST_STABLE,
    FAST_UNSTABLE,
    stochastic_arrivals,
    uniform_arrivals,
)


# ----------------------------------------------------------------------
# A* heuristic quality
# ----------------------------------------------------------------------


@dataclass
class AStarAblationResult:
    """Expansions with and without the heuristic, per horizon."""

    horizons: tuple[int, ...]
    astar_expanded: list[int]
    dijkstra_expanded: list[int]
    costs_equal: bool

    def rows(self) -> list[tuple]:
        return [
            (t, a, d, d / a if a else 1.0)
            for t, a, d in zip(
                self.horizons, self.astar_expanded, self.dijkstra_expanded
            )
        ]

    def format(self) -> str:
        return format_table(
            f"A* heuristic ablation (identical optimal costs: "
            f"{self.costs_equal})",
            ["horizon T", "A* expanded", "h=0 expanded", "speedup"],
            self.rows(),
        )


def run_astar_heuristic_ablation(
    horizons: tuple[int, ...] = (100, 200, 400),
    scale: float = common.DEFAULT_SCALE,
) -> AStarAblationResult:
    """Compare node expansions of A* against Dijkstra on Figure-6 instances."""
    costs = common.cost_functions(scale=scale)
    limit = common.default_limit(costs)
    astar_exp, dijkstra_exp = [], []
    equal = True
    for horizon in horizons:
        arrivals = uniform_arrivals(common.ARRIVAL_MIX, horizon + 1)
        problem = common.make_problem(arrivals, limit, costs)
        with_h = find_optimal_lgm_plan(problem, use_heuristic=True)
        without_h = find_optimal_lgm_plan(problem, use_heuristic=False)
        equal = equal and abs(with_h.cost - without_h.cost) < 1e-6
        astar_exp.append(with_h.expanded)
        dijkstra_exp.append(without_h.expanded)
    return AStarAblationResult(
        horizons=tuple(horizons),
        astar_expanded=astar_exp,
        dijkstra_expanded=dijkstra_exp,
        costs_equal=equal,
    )


# ----------------------------------------------------------------------
# Plan-class ablation: what do Lazy / Greedy / Minimal buy?
# ----------------------------------------------------------------------


class EagerPolicy(Policy):
    """Anti-laziness strawman: flush every delta table at every step."""

    def decide(self, t: int, pre_state: Vector) -> Vector:
        return pre_state

    def __repr__(self) -> str:
        return "EagerPolicy()"


@dataclass
class PlanClassAblationResult:
    """Total cost per plan class on one Figure-6-style instance."""

    horizon: int
    limit: float
    eager: float
    naive: float
    opt_lgm: float

    def rows(self) -> list[tuple]:
        return [
            ("EAGER (no laziness)", self.eager, self.eager / self.opt_lgm),
            ("NAIVE (lazy+greedy, maximal)", self.naive,
             self.naive / self.opt_lgm),
            ("OPT_LGM (lazy+greedy+minimal)", self.opt_lgm, 1.0),
        ]

    def format(self) -> str:
        return format_table(
            f"Plan-class ablation (T = {self.horizon}, C = "
            f"{self.limit:.0f} ms)",
            ["plan class", "total cost", "ratio vs OPT_LGM"],
            self.rows(),
        )


def run_plan_class_ablation(
    horizon: int = 400, scale: float = common.DEFAULT_SCALE
) -> PlanClassAblationResult:
    """Quantify the value of laziness and minimality."""
    costs = common.cost_functions(scale=scale)
    limit = common.default_limit(costs)
    arrivals = uniform_arrivals(common.ARRIVAL_MIX, horizon + 1)
    problem = common.make_problem(arrivals, limit, costs)
    return PlanClassAblationResult(
        horizon=horizon,
        limit=limit,
        eager=simulate_policy(problem, EagerPolicy()).total_cost,
        naive=simulate_policy(problem, NaivePolicy()).total_cost,
        opt_lgm=find_optimal_lgm_plan(problem).cost,
    )


# ----------------------------------------------------------------------
# ONLINE's TimeToFull estimator
# ----------------------------------------------------------------------


@dataclass
class EstimatorAblationResult:
    """ONLINE cost ratio vs OPT_LGM per estimator per stream class."""

    stream_names: tuple[str, ...]
    estimator_names: tuple[str, ...]
    ratios: list[list[float]]  # [stream][estimator]

    def rows(self) -> list[tuple]:
        return [
            (name, *row)
            for name, row in zip(self.stream_names, self.ratios)
        ]

    def format(self) -> str:
        return format_table(
            "ONLINE TimeToFull estimator ablation "
            "(cost ratio vs OPT_LGM; oracle isolates estimation error)",
            ["stream", *self.estimator_names],
            self.rows(),
            precision=3,
        )


def run_estimator_ablation(
    horizon: int = 600,
    scale: float = common.DEFAULT_SCALE,
    seed: int = 808,
) -> EstimatorAblationResult:
    """EWMA vs window vs fixed-rate oracle, on stable/unstable streams."""
    costs = common.cost_functions(scale=scale)
    limit = common.default_limit(costs) * 20.0 / 12.0
    streams = (("FS", FAST_STABLE), ("FU", FAST_UNSTABLE))
    ratios: list[list[float]] = []
    estimator_names = ("ewma", "window", "oracle")
    for i, (__, params) in enumerate(streams):
        arrivals = stochastic_arrivals(
            (params, params), steps=horizon + 1, seed=seed + i,
            scale=common.ARRIVAL_MIX,
        )
        problem = common.make_problem(arrivals, limit, costs)
        opt = find_optimal_lgm_plan(problem).cost
        total = problem.total_arrivals()
        true_rates = [k / (horizon + 1) for k in total]
        estimators = (
            TimeToFullEstimator(mode="ewma"),
            TimeToFullEstimator(mode="window", window=25),
            TimeToFullEstimator(mode="fixed", fixed_rates=true_rates),
        )
        row = []
        for estimator in estimators:
            trace = simulate_policy(problem, OnlinePolicy(estimator))
            row.append(trace.total_cost / opt)
        ratios.append(row)
    return EstimatorAblationResult(
        stream_names=tuple(name for name, __ in streams),
        estimator_names=estimator_names,
        ratios=ratios,
    )


# ----------------------------------------------------------------------
# Receding-horizon re-planning vs ONLINE
# ----------------------------------------------------------------------


@dataclass
class ReplanningStudyResult:
    """Cost ratio vs OPT_LGM of ONLINE and receding-horizon re-planning."""

    stream_names: tuple[str, ...]
    online_ratios: list[float]
    receding_ratios: list[float]
    replans: list[int]

    def rows(self) -> list[tuple]:
        return [
            (name, online, receding, replans)
            for name, online, receding, replans in zip(
                self.stream_names, self.online_ratios,
                self.receding_ratios, self.replans,
            )
        ]

    def format(self) -> str:
        return format_table(
            "Re-planning study: ONLINE (greedy) vs receding-horizon MPC "
            "(cost ratio vs OPT_LGM)",
            ["stream", "ONLINE", "receding-horizon", "re-plans"],
            self.rows(),
            precision=4,
        )


def run_replanning_study(
    horizon: int = 300,
    scale: float = common.DEFAULT_SCALE,
    seed: int = 909,
) -> ReplanningStudyResult:
    """Does optimal lookahead over projected arrivals beat greedy H?

    Measured answer: only when the projection is right.  With exact rates
    (uniform stream) the receding-horizon policy is within 0.02% of optimal;
    on bursty streams its smooth rate projection misrepresents the
    process and committing to the projected optimum *underperforms* the
    paper's robust one-step greedy ``H`` -- a nice empirical defence of
    the paper's choice of heuristic.
    """
    from repro.core.receding import RecedingHorizonPolicy

    costs = common.cost_functions(scale=scale)
    limit = common.default_limit(costs)
    streams = (
        ("uniform", uniform_arrivals(common.ARRIVAL_MIX, horizon + 1)),
        (
            "FS",
            stochastic_arrivals(
                (FAST_STABLE, FAST_STABLE), horizon + 1, seed=seed,
                scale=common.ARRIVAL_MIX,
            ),
        ),
        (
            "FU",
            stochastic_arrivals(
                (FAST_UNSTABLE, FAST_UNSTABLE), horizon + 1, seed=seed + 1,
                scale=common.ARRIVAL_MIX,
            ),
        ),
    )
    names, online_ratios, receding_ratios, replans = [], [], [], []
    for name, arrivals in streams:
        problem = common.make_problem(arrivals, limit, costs)
        opt = find_optimal_lgm_plan(problem).cost
        online = simulate_policy(problem, OnlinePolicy()).total_cost
        policy = RecedingHorizonPolicy(window=150)
        receding = simulate_policy(problem, policy).total_cost
        names.append(name)
        online_ratios.append(online / opt)
        receding_ratios.append(receding / opt)
        replans.append(policy.replans)
    return ReplanningStudyResult(
        stream_names=tuple(names),
        online_ratios=online_ratios,
        receding_ratios=receding_ratios,
        replans=replans,
    )


# ----------------------------------------------------------------------
# Cost-function family study
# ----------------------------------------------------------------------


@dataclass
class CostFamilyStudyResult:
    """NAIVE / OPT_LGM ratio per synthetic cost family."""

    rows_data: list[tuple[str, float, float, float]]

    def rows(self) -> list[tuple]:
        return self.rows_data

    def format(self) -> str:
        return format_table(
            "Asymmetric gain across cost families (two tables: one cheap "
            "linear, one batch-friendly of the named family)",
            ["family", "NAIVE", "OPT_LGM", "NAIVE/OPT ratio"],
            self.rows_data,
        )


def run_cost_family_study(horizon: int = 300) -> CostFamilyStudyResult:
    """How the asymmetric advantage depends on the cost-function family."""
    cheap = LinearCost(slope=1.0, setup=0.0)
    families = (
        ("linear b=40", LinearCost(slope=1.0, setup=40.0)),
        ("linear b=120", LinearCost(slope=1.0, setup=120.0)),
        ("block-io B=32", BlockIOCost(io_cost=40.0, block_size=32, slope=0.5)),
        ("concave sqrt", ConcaveCost(coeff=12.0, exponent=0.5)),
    )
    limit = 200.0
    arrivals = uniform_arrivals((1, 1), horizon + 1)
    rows = []
    for name, batchy in families:
        problem = ProblemInstance((cheap, batchy), limit, arrivals)
        naive = simulate_policy(problem, NaivePolicy()).total_cost
        opt = find_optimal_lgm_plan(problem).cost
        rows.append((name, naive, opt, naive / opt))
    return CostFamilyStudyResult(rows_data=rows)
