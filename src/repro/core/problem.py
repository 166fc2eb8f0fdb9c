"""The batch view-maintenance problem instance (Section 2 of the paper).

A :class:`ProblemInstance` bundles everything Section 2's problem statement
fixes in advance:

* ``n`` base tables with cost functions ``f_1..f_n``,
* a modification arrival sequence ``d_0..d_T`` (one n-vector per discrete
  time step; component ``i`` counts modifications to base table ``R_i``
  arriving at that step),
* the response-time constraint ``C``.

States and actions are plain tuples of non-negative ints, indexed by base
table.  The *pre-action* state at time ``t`` is the delta-table sizes after
the arrivals ``d_t`` land; the *post-action* state subtracts the action
taken at ``t``.  A state is **full** when its refresh cost exceeds ``C``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.costfuncs import CostFunction, check_cost_function

Vector = tuple[int, ...]


def zero_vector(n: int) -> Vector:
    """The all-zeros n-vector."""
    return (0,) * n


def add_vectors(a: Vector, b: Vector) -> Vector:
    """Componentwise sum of two n-vectors."""
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub_vectors(a: Vector, b: Vector) -> Vector:
    """Componentwise difference ``a - b`` of two n-vectors."""
    return tuple(x - y for x, y in zip(a, b, strict=True))


def is_nonnegative(v: Vector) -> bool:
    """True when every component of ``v`` is >= 0."""
    return all(x >= 0 for x in v)


class ProblemInstance:
    """An instance of the batch incremental maintenance problem.

    Parameters
    ----------
    cost_functions:
        One monotone subadditive :class:`CostFunction` per base table.
    limit:
        The response-time constraint ``C >= 0``: every post-action state
        must have refresh cost at most ``C``.
    arrivals:
        The modification arrival sequence ``d_0 .. d_T``.  Length ``T + 1``
        where ``T`` is the refresh time.  Each element is an n-vector of
        non-negative modification counts.
    validate:
        When true, empirically check monotonicity and subadditivity of each
        cost function over a small sample range.  Disable for expensive
        tabulated functions that were validated at calibration time.

    Notes
    -----
    The instance is immutable; planners treat it as a value.  All heavy
    per-instance precomputation (cumulative and suffix arrival totals, the
    per-table batch bounds, the A* heuristic's per-table cost-to-go
    tables) is cached lazily.
    """

    def __init__(
        self,
        cost_functions: Sequence[CostFunction],
        limit: float,
        arrivals: Sequence[Sequence[int]],
        validate: bool = False,
    ):
        if not cost_functions:
            raise ValueError("need at least one base table")
        if limit < 0:
            raise ValueError(f"response-time constraint must be >= 0, got {limit}")
        if not arrivals:
            raise ValueError("arrival sequence must cover at least time step 0")
        self.cost_functions: tuple[CostFunction, ...] = tuple(cost_functions)
        self.limit = float(limit)
        n = len(self.cost_functions)
        cleaned: list[Vector] = []
        for t, d in enumerate(arrivals):
            d = tuple(int(x) for x in d)
            if len(d) != n:
                raise ValueError(
                    f"arrival vector at t={t} has {len(d)} components, expected {n}"
                )
            if not is_nonnegative(d):
                raise ValueError(f"arrival vector at t={t} has negative components")
            cleaned.append(d)
        self.arrivals: tuple[Vector, ...] = tuple(cleaned)
        if validate:
            for f in self.cost_functions:
                check_cost_function(f)
        self._suffix_totals: list[Vector] | None = None
        self._prefix_totals: list[Vector] | None = None
        self._batch_bounds: Vector | None = None
        # Value caches for the planners' hot loops.  Cost functions are
        # pure, so caching changes which calls happen, never any value:
        # a memoized result is the bit-identical float the call would
        # have produced.  ``_cost_memo`` maps state -> f(state);
        # ``_component_memos[i]`` maps k -> f_i(k); ``_action_memo`` maps
        # a full state -> its greedy-minimal-action tuple (filled by
        # :func:`repro.core.actions.cached_greedy_minimal_actions`).
        self._cost_memo: dict[Vector, float] = {}
        self._component_memos: tuple[dict[int, float], ...] = tuple(
            {} for __ in self.cost_functions
        )
        self._action_memo: dict[Vector, tuple[Vector, ...]] = {}
        # The A* heuristic's per-table cost-to-go tables, built on first
        # use by :func:`repro.core.astar._heuristic`.
        self._cost_to_go = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of base tables."""
        return len(self.cost_functions)

    @property
    def horizon(self) -> int:
        """The refresh time ``T`` (arrivals cover ``0..T``)."""
        return len(self.arrivals) - 1

    def total_arrivals(self) -> Vector:
        """Total modifications per table over the whole period."""
        total = zero_vector(self.n)
        for d in self.arrivals:
            total = add_vectors(total, d)
        return total

    # ------------------------------------------------------------------
    # Cost / fullness
    # ------------------------------------------------------------------

    def refresh_cost(self, state: Vector) -> float:
        """``f(s) = sum_i f_i(s[i])`` -- cost of refreshing the view now.

        Memoized per state (and per component): planners probe the same
        states and batch sizes over and over, and tabulated cost functions
        pay a bisect per call.  Summation stays left-to-right over the
        component values, so the cached total is bit-identical to the
        uncached expression.
        """
        cached = self._cost_memo.get(state)
        if cached is not None:
            return cached
        total = 0
        for f, memo, k in zip(
            self.cost_functions, self._component_memos, state, strict=True
        ):
            c = memo.get(k)
            if c is None:
                c = memo[k] = f(k)
            total = total + c
        self._cost_memo[state] = total
        return total

    def is_full(self, state: Vector) -> bool:
        """True when the refresh cost of ``state`` exceeds the constraint."""
        return self.refresh_cost(state) > self.limit + 1e-9

    # ------------------------------------------------------------------
    # Derived arrival statistics
    # ------------------------------------------------------------------

    def suffix_totals(self) -> list[Vector]:
        """``suffix_totals()[t][i]`` = modifications to R_i arriving in (t, T].

        ``K_i`` of the paper's Lemma-7 heuristic for a node with timestamp
        ``t`` is exactly ``suffix_totals()[t][i]``.  Index ``t`` ranges
        over ``-1..T`` (shifted by one: entry 0 corresponds to ``t = -1``),
        but to keep call sites simple the returned list has ``T + 2``
        entries and is indexed via :meth:`future_arrivals`.
        """
        if self._suffix_totals is None:
            totals: list[Vector] = [zero_vector(self.n)] * (self.horizon + 2)
            acc = zero_vector(self.n)
            for t in range(self.horizon, -1, -1):
                acc = add_vectors(acc, self.arrivals[t])
                totals[t] = acc
            totals[self.horizon + 1] = zero_vector(self.n)
            self._suffix_totals = totals
        return self._suffix_totals

    def prefix_totals(self) -> list[Vector]:
        """``prefix_totals()[t + 1][i]`` = modifications to R_i in ``[0, t]``.

        Entry 0 is the zero vector (nothing has arrived before time 0), so
        the arrivals in the half-open window ``(t1, t2]`` are exactly
        ``prefix_totals()[t2 + 1] - prefix_totals()[t1 + 1]`` -- all integer
        arithmetic, hence exact.  This is what lets the A* expansion locate
        the first full time step by binary search instead of re-summing
        arrivals along every edge.
        """
        if self._prefix_totals is None:
            totals = [zero_vector(self.n)]
            acc = totals[0]
            for d in self.arrivals:
                acc = add_vectors(acc, d)
                totals.append(acc)
            self._prefix_totals = totals
        return self._prefix_totals

    def state_at(self, t1: int, state: Vector, t2: int) -> Vector:
        """The pre-action state at ``t2`` reached from post-action ``state``
        at ``t1`` with no action in between: ``state`` plus all arrivals in
        ``(t1, t2]``."""
        prefix = self.prefix_totals()
        upto, since = prefix[t2 + 1], prefix[t1 + 1]
        return tuple(
            s + a - b for s, a, b in zip(state, upto, since, strict=True)
        )

    def future_arrivals(self, t: int) -> Vector:
        """Total modifications per table arriving strictly after time ``t``."""
        idx = t + 1
        if idx < 0:
            idx = 0
        if idx > self.horizon + 1:
            idx = self.horizon + 1
        return self.suffix_totals()[idx]

    def max_step_arrival(self, i: int) -> int:
        """``m_i``: the largest single-step arrival count for table ``i``."""
        return max((d[i] for d in self.arrivals), default=0)

    def batch_bounds(self) -> Vector:
        """``b_i = m_i + max{b : f_i(b) <= C}`` per table (Lemma 7).

        ``b_i`` bounds the number of ``R_i`` modifications one action can
        ever need to process: a lazy plan acts as soon as the state is full,
        so the backlog at action time is at most one constraint-sized batch
        plus the single largest arrival burst.
        """
        if self._batch_bounds is None:
            bounds = []
            for i, f in enumerate(self.cost_functions):
                base = f.batch_limit(self.limit)
                bounds.append(max(1, self.max_step_arrival(i) + base))
            self._batch_bounds = tuple(bounds)
        return self._batch_bounds

    # ------------------------------------------------------------------
    # Instance surgery (used by ADAPT and the experiment drivers)
    # ------------------------------------------------------------------

    def truncated(self, new_horizon: int) -> "ProblemInstance":
        """The same instance with the arrival sequence cut at ``new_horizon``."""
        if not 0 <= new_horizon <= self.horizon:
            raise ValueError(
                f"new horizon {new_horizon} outside [0, {self.horizon}]"
            )
        return ProblemInstance(
            self.cost_functions, self.limit, self.arrivals[: new_horizon + 1]
        )

    def extended_periodic(self, new_horizon: int) -> "ProblemInstance":
        """Extend the arrival sequence periodically up to ``new_horizon``.

        Section 4.2 analyses ADAPT for ``T > T_0`` under the assumption that
        the arrival sequence is periodic with period ``T_0``; this helper
        materializes that assumption.
        """
        if new_horizon < self.horizon:
            raise ValueError("use truncated() to shrink the horizon")
        period = len(self.arrivals)
        arrivals = [self.arrivals[t % period] for t in range(new_horizon + 1)]
        return ProblemInstance(self.cost_functions, self.limit, arrivals)

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(n={self.n}, T={self.horizon}, C={self.limit}, "
            f"total={self.total_arrivals()})"
        )
