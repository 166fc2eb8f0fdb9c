"""The per-modification-rate A* bound, as a test oracle.

``h(x) = sum_i (s[i] + K_i) * r_i`` with ``r_i = min_{1 <= k <= b_i}
f_i(k) / k``: every remaining modification is processed in some batch of
at most ``b_i`` and pays at least ``r_i``.  It is consistent but weak; the
separable cost-to-go bound in :mod:`repro.core.astar` must never fall
below it and never expand more nodes than it.
"""

from __future__ import annotations

from repro.core.problem import ProblemInstance


def min_batch_rates(problem: ProblemInstance) -> tuple[float, ...]:
    """Per-table ``min_{1 <= k <= b_i} f_i(k) / k``.

    Exact up to batch sizes of 65536; beyond that the rate degrades to 0
    (no guidance), since a too-high rate would make the bound inadmissible.
    """
    return tuple(
        min(f(k) / k for k in range(1, b + 1)) if b <= 65536 else 0.0
        for f, b in zip(problem.cost_functions, problem.batch_bounds())
    )


def rate_heuristic(node, problem: ProblemInstance) -> float:
    """``sum_i (s[i] + K_i) * r_i``: a drop-in for ``astar._heuristic``."""
    t, state = node
    future = problem.future_arrivals(t)
    return sum(
        (s + k) * r for s, k, r in zip(state, future, min_batch_rates(problem))
    )
