"""The documented A* heuristic deviation, demonstrated empirically.

DESIGN.md records that we replaced the paper's Lemma-7 heuristic

    h(x) = sum_i floor((s[i] + K_i) / b_i) * f_i(b_i)

with the separable single-table cost-to-go bound because the floor form
is not consistent.  These tests *show* that: the paper's formula,
evaluated on the LGM plan graph of a plain linear instance, violates
``h(x) <= f(q) + h(x')`` across batch-boundary edges, while the
separable bound never does.
"""

import random

import pytest

from repro.core import astar
from repro.core.astar import (
    _expand,
    check_heuristic_consistency,
    find_optimal_lgm_plan,
)
from repro.core.costfuncs import LinearCost
from repro.core.problem import ProblemInstance, zero_vector


def paper_heuristic(node, problem):
    """The paper's floor-based estimate (Lemma 7), verbatim."""
    t, state = node
    future = problem.future_arrivals(t)
    bounds = problem.batch_bounds()
    total = 0.0
    for i, f in enumerate(problem.cost_functions):
        remaining = state[i] + future[i]
        total += (remaining // bounds[i]) * f(bounds[i])
    return total


def violations_of(heuristic, problem, max_nodes=500):
    """Consistency violations of an arbitrary heuristic over the graph."""
    source = (-1, zero_vector(problem.n))
    seen = {source}
    frontier = [source]
    out = []
    while frontier and len(seen) < max_nodes:
        nxt = []
        for node in frontier:
            h_node = heuristic(node, problem)
            for successor, weight in _expand(node, problem):
                if h_node > weight + heuristic(successor, problem) + 1e-9:
                    out.append((node, successor))
                if successor not in seen:
                    seen.add(successor)
                    nxt.append(successor)
        frontier = nxt
    return out


@pytest.fixture
def boundary_instance():
    """A setup-heavy table whose backlog crosses multiples of b_i:
    the regime where the floor estimate drops discontinuously."""
    return ProblemInstance(
        [LinearCost(slope=1.0, setup=6.0), LinearCost(slope=2.0)],
        limit=20.0,
        arrivals=[(2, 1)] * 30,
    )


class TestPaperHeuristicInconsistency:
    def test_floor_form_violates_consistency(self, boundary_instance):
        assert violations_of(paper_heuristic, boundary_instance)

    def test_separable_bound_is_consistent_on_same_instance(self, boundary_instance):
        assert check_heuristic_consistency(boundary_instance) == []

    def test_separable_bound_consistent_on_random_boundary_instances(self):
        rng = random.Random(77)
        for __ in range(6):
            problem = ProblemInstance(
                [
                    LinearCost(rng.uniform(0.5, 2.0), rng.uniform(2.0, 10.0)),
                    LinearCost(rng.uniform(0.5, 3.0)),
                ],
                limit=rng.uniform(10.0, 30.0),
                arrivals=[
                    (rng.randint(0, 3), rng.randint(0, 2))
                    for __ in range(rng.randint(10, 30))
                ],
            )
            assert check_heuristic_consistency(problem) == []

    def test_astar_with_inconsistent_heuristic_can_be_suboptimal(
        self, boundary_instance, monkeypatch
    ):
        """With the paper's h swapped in, the closed-set A* may return a
        more expensive plan than the exact (Dijkstra) answer -- the bug
        that motivated the deviation."""
        exact = find_optimal_lgm_plan(
            boundary_instance, use_heuristic=False
        ).cost
        ours = find_optimal_lgm_plan(
            boundary_instance, use_heuristic=True
        ).cost
        assert ours == pytest.approx(exact)

        monkeypatch.setattr(astar, "_heuristic", paper_heuristic)
        papers = find_optimal_lgm_plan(
            boundary_instance, use_heuristic=True
        ).cost
        # The paper's h is admissible-ish here, so the result is at least
        # `exact`; on boundary instances with a closed set it can exceed it.
        assert papers >= exact - 1e-9
