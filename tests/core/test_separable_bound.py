"""Properties of the separable single-table A* bound.

``h(t, s) = sum_i J_i(t, s[i])`` where ``J_i`` is table ``i``'s exact
cost-to-go when the coupling constraint ``sum_i f_i <= C`` is relaxed to
``f_i <= C`` per table (see :mod:`repro.core.astar`).  On instances over
every cost-function family -- including a non-subadditive tabulated
curve, a table that is forced to flush on its own mid-horizon and one
that never overflows -- the bound must be consistent, admissible, never
below the per-modification-rate bound it replaced, and never expand more
nodes than that bound.  On integer-cost instances, where every float sum
is exact, A* must return the very plan Dijkstra returns.
"""

import random

import pytest

from repro.core import astar
from repro.core.astar import (
    _expand,
    _heuristic,
    check_heuristic_consistency,
    find_optimal_lgm_plan,
)
from repro.core.costfuncs import (
    BlockIOCost,
    LinearCost,
    StepCost,
    TabulatedCost,
)
from repro.core.problem import ProblemInstance, zero_vector
from tests.core.rate_bound import min_batch_rates, rate_heuristic

LIMIT = 20.0

#: Not subadditive: f(4) = 6 > f(2) + f(2) = 3.
NON_SUBADDITIVE = TabulatedCost([(1, 1.0), (2, 1.5), (4, 6.0), (8, 7.0)])

FAMILIES = {
    "linear": [LinearCost(1.0, 6.0), LinearCost(2.0)],
    "block_io": [BlockIOCost(4.0, 3, slope=0.5), LinearCost(0.5, 3.0)],
    "step": [StepCost(0.25, LIMIT), LinearCost(1.5, 2.0)],
    "tabulated": [NON_SUBADDITIVE, LinearCost(1.0, 4.0)],
    # Table 0 alone overflows C every ~6 steps and must flush by itself;
    # table 1 never reaches C within the horizon.
    "forced_and_idle": [
        LinearCost(1.0, 2.0), LinearCost(0.1), LinearCost(2.0, 5.0),
    ],
}


def family_instances(name, count=4, seed=31):
    costs = FAMILIES[name]
    rng = random.Random(f"{seed}/{name}")
    for __ in range(count):
        steps = rng.randint(10, 30)
        if name == "forced_and_idle":
            arrivals = [
                (3, rng.randint(0, 1), rng.randint(0, 1)) for __ in range(steps)
            ]
        else:
            arrivals = [
                tuple(rng.randint(0, 3) for __ in costs) for __ in range(steps)
            ]
        yield ProblemInstance(costs, LIMIT, arrivals)


def explored_nodes(problem, max_nodes=400):
    """Nodes of the LGM plan graph, breadth-first from the source."""
    source = (-1, zero_vector(problem.n))
    seen = [source]
    index = {source}
    for node in seen:
        if len(seen) >= max_nodes:
            break
        for successor, __ in _expand(node, problem):
            if successor not in index:
                index.add(successor)
                seen.append(successor)
    return seen


def single_table(problem, i):
    """Table ``i`` of ``problem`` on its own, under the same ``C``."""
    return ProblemInstance(
        [problem.cost_functions[i]], problem.limit,
        [(d[i],) for d in problem.arrivals],
    )


@pytest.fixture(params=sorted(FAMILIES))
def instances(request):
    return list(family_instances(request.param))


class TestSeparableBound:
    def test_consistent(self, instances):
        for problem in instances:
            assert check_heuristic_consistency(problem) == []

    def test_admissible_at_source(self, instances):
        for problem in instances:
            optimum = find_optimal_lgm_plan(problem, use_heuristic=False).cost
            source = (-1, zero_vector(problem.n))
            assert _heuristic(source, problem) <= optimum + 1e-9

    def test_separable_and_above_rate_bound(self, instances):
        for problem in instances:
            singles = [single_table(problem, i) for i in range(problem.n)]
            rates = min_batch_rates(problem)
            for t, state in explored_nodes(problem):
                future = problem.future_arrivals(t)
                terms = [
                    _heuristic((t, (s,)), single)
                    for single, s in zip(singles, state)
                ]
                assert _heuristic((t, state), problem) == sum(terms)
                for j, s, k, r in zip(terms, state, future, rates):
                    assert j >= (s + k) * r - 1e-9

    def test_no_more_expansions_than_rate_bound(self, instances, monkeypatch):
        ours = [find_optimal_lgm_plan(p) for p in instances]
        monkeypatch.setattr(astar, "_heuristic", rate_heuristic)
        rate = [find_optimal_lgm_plan(p) for p in instances]
        for a, b in zip(ours, rate):
            assert a.cost == pytest.approx(b.cost)
            assert a.expanded <= b.expanded


def integer_instances(count=24, seed=5):
    """Integer costs, limits and arrivals: every float sum is exact."""
    rng = random.Random(seed)
    for __ in range(count):
        n = rng.randint(1, 3)
        costs = [
            LinearCost(rng.randint(1, 3), rng.randint(0, 8))
            if rng.random() < 0.5
            else BlockIOCost(
                rng.randint(1, 5), rng.randint(1, 4), rng.randint(0, 2)
            )
            for __ in range(n)
        ]
        arrivals = [
            tuple(rng.randint(0, 3) for __ in range(n))
            for __ in range(rng.randint(5, 40))
        ]
        yield ProblemInstance(costs, rng.randint(8, 30), arrivals)


class TestCanonicalTieBreak:
    def test_astar_and_dijkstra_return_the_same_plan(self):
        for problem in integer_instances():
            with_h = find_optimal_lgm_plan(problem, use_heuristic=True)
            without_h = find_optimal_lgm_plan(problem, use_heuristic=False)
            assert with_h.cost == without_h.cost
            assert with_h.plan.actions == without_h.plan.actions
