"""A* search for the optimal LGM plan (Section 4.1 of the paper).

The space of LGM plans is modeled as a weighted DAG:

* a node is a ``(timestamp, post-action state)`` pair reachable by some
  valid LGM plan; the *source* is ``(-1, 0)`` and the *destination* is
  ``(T, 0)``;
* from a node at time ``t1`` with state ``s``, arrivals accumulate until
  the first time ``t2`` the pre-action state becomes full; each greedy
  minimal valid action ``q`` at ``t2`` is an edge of weight ``f(q)``; if
  the state never becomes full before ``T`` (or becomes full exactly at
  ``T``), the single edge goes to the destination with the cost of the
  final full refresh.

Shortest source-to-destination paths correspond exactly to minimum-cost
LGM plans (Theorem 3).

**Heuristic (deviation from the paper, documented in DESIGN.md).**  The
paper proposes ``h(x) = sum_i floor((s[i] + K_i) / b_i) * f_i(b_i)`` where
``K_i`` counts future arrivals and ``b_i = m_i + max{b : f_i(b) <= C}``
bounds any single action's batch, and claims it is consistent (Lemma 7).
It is not: across an action that moves the remaining total ``M_i = s[i] +
K_i`` over a multiple of ``b_i``, the floor term drops by a full
``f_i(b_i)`` while the action itself may cost far less, violating
``h(x) <= f(q) + h(x')`` (we hit such violations with calibrated TPC-R
cost curves, producing 0.01%-suboptimal answers).  We instead relax the
coupling constraint ``sum_i f_i(s[i]) <= C`` to ``f_i(s[i]) <= C`` for
each table separately and use the exact cost-to-go of the relaxation,

    h(t, s) = sum_i J_i(t, s[i])
    J_i(t, s) = min_{u in (t, T]} f_i(s + A_i(t, u]) + J_i(u, 0)

where ``A_i(t, u]`` counts table ``i``'s arrivals in ``(t, u]``, the
final flush at ``u = T`` costs ``f_i`` of everything outstanding, and
``u`` may not pass the first ``u < T`` at which table ``i`` alone is
full (the flush is forced there).  ``J_i(u, 0)`` is built once per
instance by a backward pass; ``J_i(t, s > 0)`` is evaluated lazily and
memoized.

*Consistency.*  Project an LGM edge ``(t, s) -> (t', s - q)`` onto table
``i``.  Before ``t'`` the joint pre-action state is not full, so neither
is table ``i``'s alone (costs are non-negative): if ``q_i > 0`` the
projection is the single-table move "flush at ``t'``", so ``J_i(t, s[i])
<= f_i(q_i) + J_i(t', 0)``; if ``q_i = 0`` table ``i`` is not full at
``t'`` either (the post-action state is valid), every move open at
``(t', s[i] + A_i(t, t'])`` is open at ``(t, s[i])``, and ``J_i(t, s[i])
<= J_i(t', s[i] + A_i(t, t'])``.  Summing over ``i`` gives ``h(x) <=
f(q) + h(x')``; with ``h(T, 0) = 0`` consistency implies admissibility.
The argument needs only monotone, non-negative costs -- not
subadditivity, which :class:`~repro.core.costfuncs.TabulatedCost` does
not guarantee.  Every relaxed batch is at most ``b_i``, so ``J_i`` never
falls below the per-modification-rate bound ``(s[i] + K_i) * min_{k <=
b_i} f_i(k) / k``.
Consistency makes the first expansion of every node optimal, so each node
is expanded at most once.

**Tie-breaking.**  Equal-cost optimal plans are common, and ADAPT replays
whichever one the search returns, so the choice is made canonical and
independent of the heuristic: the heap breaks ``f`` ties on the node's
timestamp (predecessors pop first), and a path that ties a node's ``g``
within 1e-12 replaces its parent when the new parent has a smaller
``(t, state)``.  With a consistent heuristic every optimal predecessor
of a node is expanded before the node itself, so each node ends up with
its smallest optimal predecessor -- the same with or without ``h``
whenever path costs are summed exactly.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import time
from dataclasses import dataclass

from repro import obs
from repro.obs import decisions
from repro.core.actions import cached_greedy_minimal_actions
from repro.core.plan import Plan
from repro.core.problem import (
    ProblemInstance,
    Vector,
    add_vectors,
    sub_vectors,
    zero_vector,
)

Node = tuple[int, Vector]  # (timestamp, post-action state)


@dataclass
class AStarResult:
    """Outcome of :func:`find_optimal_lgm_plan`.

    ``expanded`` and ``generated`` node counts feed the heuristic-quality
    ablation (A* vs Dijkstra) in ``repro.experiments.ablations``; they are
    also registered as ``astar.expanded`` / ``astar.generated`` counters in
    the :mod:`repro.obs` metrics registry (via :meth:`register_metrics`),
    so any observed run reports search effort uniformly alongside the
    engine and simulator metrics.
    """

    plan: Plan
    cost: float
    expanded: int
    generated: int

    def register_metrics(self) -> None:
        """Fold the search statistics into the active metrics registry."""
        obs.counter("astar.searches")
        obs.counter("astar.expanded", self.expanded)
        obs.counter("astar.generated", self.generated)
        obs.observe("astar.plan_cost", self.cost)


def _heuristic(node: Node, problem: ProblemInstance) -> float:
    """Consistent lower bound on remaining maintenance cost.

    ``sum_i J_i(t, s[i])``, the separable single-table cost-to-go -- see
    the module docstring for the definition and why it replaces the
    paper's floor-based estimate.  The ``J_i`` tables are built on first
    use and kept on ``problem``.
    """
    tables = problem._cost_to_go
    if tables is None:
        full_above = problem.limit + 1e-9  # the is_full threshold
        prefix = problem.prefix_totals()
        tables = problem._cost_to_go = tuple(
            _TableCostToGo(f, costs, [p[i] for p in prefix], full_above)
            for i, (f, costs) in enumerate(
                zip(problem.cost_functions, problem._component_memos)
            )
        )
    t, state = node
    return sum(cost_to_go(t, s) for cost_to_go, s in zip(tables, state))


class _TableCostToGo:
    """``J_i(t, s)`` for one table ``i`` of one instance.

    ``cum[t + 1]`` is table ``i``'s arrival count in ``[0, t]`` (its
    column of :meth:`ProblemInstance.prefix_totals`); ``empty[t + 1] =
    J_i(t, 0)``, filled by a backward pass, with ``J_i(T, 0) = 0``;
    ``memo`` holds ``J_i(t, s > 0)`` as the search asks for it.  Costs go
    through the instance's component memo ``costs``, so every ``f_i(k)``
    is the bit-identical float :meth:`ProblemInstance.refresh_cost` sums.
    """

    __slots__ = ("f", "costs", "cum", "grows", "full_above", "empty", "memo")

    def __init__(self, f, costs: dict[int, float], cum: list[int],
                 full_above: float):
        self.f = f
        self.costs = costs
        self.cum = cum
        self.full_above = full_above
        horizon = len(cum) - 2
        # The steps at which the table's backlog grows, then a sentinel.
        self.grows = [u for u in range(horizon + 1) if cum[u + 1] > cum[u]]
        self.grows.append(horizon + 1)
        self.empty = [0.0] * (horizon + 2)
        self.memo: dict[tuple[int, int], float] = {}
        for t in range(horizon - 1, -2, -1):
            self.empty[t + 1] = self._scan(t, 0)

    def __call__(self, t: int, s: int) -> float:
        if not s:
            return self.empty[t + 1]
        j = self.memo.get((t, s))
        if j is None:
            j = self.memo[t, s] = self._scan(t, s)
        return j

    def _scan(self, t: int, s: int) -> float:
        """Cheapest whole-table flush time ``u`` in ``(t, T]``, up to and
        including the first step where the table alone is full.

        Between two growth steps the backlog, hence the flush cost, is
        constant while ``J_i(u, 0)`` can only fall (costs are monotone:
        an empty table at a later step has less left to process, under
        looser fullness limits), so each such run is represented by its
        last step -- or by its first when the backlog is already full
        there.  Flush costs grow from run to run and ``J_i(u, 0) >= 0``,
        so the scan also stops once the flush cost alone reaches the
        best total found.
        """
        costs, cum, empty = self.costs, self.cum, self.empty
        lookup = costs.get
        full_above = self.full_above
        base = s - cum[t + 1]
        best = float("inf")
        start = t + 1
        grows = self.grows
        first = bisect.bisect_right(grows, start)
        for end in itertools.islice(grows, first, None):
            k = base + cum[start + 1]  # the backlog over steps [start, end)
            c = lookup(k)
            if c is None:
                c = costs[k] = self.f(k)
            if c >= best:
                break
            if c > full_above:  # forced flush at start
                total = c + empty[start + 1]
                if total < best:
                    best = total
                break
            total = c + empty[end]
            if total < best:
                best = total
            start = end
        return best


def _expand(node: Node, problem: ProblemInstance) -> list[tuple[Node, float]]:
    """Successors of ``node``: ``(successor, edge_weight)`` pairs.

    Implements the edge rule of Section 4.1, including the destination
    special case (the final refresh is exempt from laziness and must
    process everything).

    The first full time step is located by binary search rather than a
    linear walk: the pre-action state grows componentwise with ``t2``
    (arrivals are non-negative) and the cost functions are monotone, so
    fullness is monotone in ``t2`` and the same ``is_full`` predicate that
    the walk would evaluate step by step identifies the boundary.  States
    come from exact integer prefix sums, so every probed state -- and hence
    every edge -- is identical to the linear walk's.
    """
    t1, state = node
    horizon = problem.horizon
    if t1 >= horizon:
        # t1 == horizon with a non-zero state cannot happen: destination
        # nodes are terminal and all other nodes at T are never created.
        return []
    prefix = problem.prefix_totals()
    # base + prefix[t2 + 1] == state + arrivals in (t1, t2]: exact ints.
    base = tuple(s - b for s, b in zip(state, prefix[t1 + 1]))
    refresh_cost = problem.refresh_cost
    full_above = problem.limit + 1e-9  # the is_full threshold, verbatim
    # Smallest t2 in (t1, horizon) whose pre-action state is full, if any.
    first_full = None
    lo, hi = t1 + 1, horizon - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if refresh_cost(tuple(map(sum, zip(base, prefix[mid + 1])))) > full_above:
            first_full = mid
            hi = mid - 1
        else:
            lo = mid + 1
    if first_full is None:
        # Never full before the refresh time: one edge, flush everything.
        cur = tuple(map(sum, zip(base, prefix[horizon + 1])))
        return [((horizon, zero_vector(problem.n)), problem.refresh_cost(cur))]
    cur = tuple(map(sum, zip(base, prefix[first_full + 1])))
    return [
        ((first_full, sub_vectors(cur, action)), problem.refresh_cost(action))
        for action in cached_greedy_minimal_actions(cur, problem)
    ]


def find_optimal_lgm_plan(problem: ProblemInstance, use_heuristic: bool = True) -> AStarResult:
    """Find a minimum-cost LGM plan via A* (Section 4.1).

    Parameters
    ----------
    problem:
        The instance, with full advance knowledge of arrivals and ``T``.
    use_heuristic:
        When false, run with ``h = 0`` (Dijkstra).  Same optimal answer,
        more node expansions; exposed for the heuristic ablation.

    Returns
    -------
    AStarResult
        The optimal plan, its cost ``OPT_LGM``, and search statistics.

    Raises
    ------
    ValueError
        If no valid LGM plan exists -- i.e. some single time step's
        arrivals already exceed what any greedy minimal action can clear.
        (With subadditive costs this happens only when even emptying every
        delta table leaves a full state, which is impossible since the
        empty state costs 0; so in practice search always succeeds.)
    """
    source: Node = (-1, zero_vector(problem.n))
    destination: Node = (problem.horizon, zero_vector(problem.n))

    heuristic_evals = 0

    def h(node: Node) -> float:
        nonlocal heuristic_evals
        if not use_heuristic:
            return 0.0
        heuristic_evals += 1
        return _heuristic(node, problem)

    # Heap entries are (f, t, seq, node): f ties pop the earlier node first
    # (see "Tie-breaking" in the module docstring); seq keeps it stable.
    counter = itertools.count()
    g: dict[Node, float] = {source: 0.0}
    parent: dict[Node, Node] = {}
    open_heap: list[tuple[float, int, int, Node]] = [
        (h(source), source[0], next(counter), source)
    ]
    closed: set[Node] = set()
    expanded = 0
    generated = 1
    heap_peak = 1
    inconsistencies = 0
    started = time.perf_counter()

    with obs.trace(
        "astar.search", horizon=problem.horizon, n=problem.n,
        heuristic=use_heuristic,
    ) as span:
        while open_heap:
            node = heapq.heappop(open_heap)[3]
            if node in closed:
                continue  # stale heap entry
            if node == destination:
                plan = _reconstruct_plan(parent, destination, problem)
                plan.check_valid(problem)
                result = AStarResult(
                    plan=plan, cost=g[node], expanded=expanded,
                    generated=generated,
                )
                span.set(
                    cost=result.cost, expanded=expanded, generated=generated,
                )
                result.register_metrics()
                if decisions.active():
                    first = next(
                        (a for a in plan.actions if any(a)),
                        zero_vector(problem.n),
                    )
                    flushes = sum(1 for a in plan.actions if any(a))
                    decisions.emit_policy_decision(
                        "OPT_LGM",
                        -1,  # plans the whole horizon before time starts
                        zero_vector(problem.n),
                        problem.cost_functions,
                        problem.limit,
                        chosen=first,
                        rationale=(
                            f"optimal LGM plan: cost={result.cost:.3f} over "
                            f"{flushes} flush(es), expanded={expanded}, "
                            f"generated={generated}"
                        ),
                    )
                obs.counter("astar.heuristic_evals", heuristic_evals)
                obs.counter(
                    "astar.heuristic.inconsistency_detected", inconsistencies
                )
                obs.gauge_max("astar.heap_peak", heap_peak)
                obs.observe(
                    "astar.time_to_solution_ms",
                    (time.perf_counter() - started) * 1e3,
                )
                return result
            closed.add(node)
            expanded += 1
            for successor, weight in _expand(node, problem):
                tentative = g[node] + weight
                if successor in closed:
                    # A consistent heuristic guarantees closed nodes hold
                    # their optimal g; a strictly better path arriving now
                    # is exactly where the paper's floor-based Lemma-7
                    # heuristic misfires (see module docstring).  Counted,
                    # never repaired: the separable bound keeps this at 0.
                    if tentative < g[successor] - 1e-12:
                        inconsistencies += 1
                    continue
                known = g.get(successor)
                if known is None or tentative < known - 1e-12:
                    g[successor] = tentative
                    parent[successor] = node
                    heapq.heappush(
                        open_heap,
                        (tentative + h(successor), successor[0],
                         next(counter), successor),
                    )
                    generated += 1
                    if len(open_heap) > heap_peak:
                        heap_peak = len(open_heap)
                elif tentative <= known + 1e-12 and node < parent[successor]:
                    parent[successor] = node  # canonical tie-break
    raise ValueError("no valid LGM plan exists for this instance")


def check_heuristic_consistency(
    problem: ProblemInstance, max_nodes: int = 2000
) -> list[tuple[Node, Node, float, float]]:
    """Search for consistency violations ``h(x) > f(q) + h(x')``.

    Explores the LGM plan graph breadth-first (up to ``max_nodes`` nodes)
    and returns every violating edge as ``(node, successor, h(node),
    edge_cost + h(successor))``.  An empty list certifies consistency over
    the explored region.  This is the tool that exposed the paper's
    Lemma 7 heuristic as inconsistent; for the separable cost-to-go bound
    used by :func:`find_optimal_lgm_plan` it provably returns no
    violations, and property tests re-check that on randomized instances.
    """
    source: Node = (-1, zero_vector(problem.n))
    violations: list[tuple[Node, Node, float, float]] = []
    seen = {source}
    frontier = [source]
    while frontier and len(seen) < max_nodes:
        next_frontier: list[Node] = []
        for node in frontier:
            h_node = _heuristic(node, problem)
            for successor, weight in _expand(node, problem):
                bound = weight + _heuristic(successor, problem)
                if h_node > bound + 1e-9:
                    violations.append((node, successor, h_node, bound))
                    obs.counter("astar.heuristic.inconsistency_detected")
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return violations


def _reconstruct_plan(
    parent: dict[Node, Node], destination: Node, problem: ProblemInstance
) -> Plan:
    """Turn the A* parent chain into a concrete :class:`Plan` (Theorem 3)."""
    path: list[Node] = [destination]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()  # source .. destination
    actions = [zero_vector(problem.n)] * (problem.horizon + 1)
    for (t_prev, s_prev), (t_cur, s_cur) in zip(path, path[1:]):
        pre = s_prev
        for t in range(t_prev + 1, t_cur + 1):
            pre = add_vectors(pre, problem.arrivals[t])
        actions[t_cur] = sub_vectors(pre, s_cur)
    return Plan(actions)
