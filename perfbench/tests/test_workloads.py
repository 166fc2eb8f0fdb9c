"""The workloads' generated inputs depend on the seed and nothing else."""

import itertools
import random

import pytest

import workloads
from repro.core.costfuncs import LinearCost


def stream(workload, units=300):
    return [
        [(op.kind, op.mods) for op in unit]
        for unit in itertools.islice(workload.units(), units)
    ]


def test_plan_search_instances_follow_the_seed():
    def arrivals(seed, i, copy=0):
        w = workloads.PlanSearch(seed)
        w.costs, w.limit = (LinearCost(1, 1),) * 3, 100.0
        return w.instance(i, copy).arrivals

    assert arrivals(1, 3) == arrivals(1, 3)
    assert arrivals(1, 3) != arrivals(2, 3)
    assert arrivals(1, 3) != arrivals(1, 4)
    # A simulated copy has the searched instance's horizon, not its arrivals.
    assert len(arrivals(1, 3, 1)) == len(arrivals(1, 3))
    assert arrivals(1, 3, 1) != arrivals(1, 3)


def test_live_refresh_stream_follows_the_seed():
    a, b, c = (workloads.LiveRefresh(s) for s in (1, 1, 2))
    assert stream(a) == stream(b)
    assert stream(a) != stream(c)
    kinds = [op[0] for unit in stream(a) for op in unit]
    assert kinds.count("request") > 0


def definitions(seed):
    w = workloads.FleetRounds(seed)
    return [
        (repr(spec), aliases, policy)
        for spec, aliases, policy in w.definitions(random.Random(workloads.derive(seed, "views")))
    ]


def test_fleet_definitions_follow_the_seed_with_a_fixed_mix():
    one, again, other = definitions(1), definitions(1), definitions(2)
    assert one == again
    assert one != other
    assert len(one) == workloads.FleetRounds.views
    # The seed moves filter bounds and duplicate choices, not the mix.
    def mix(defs):
        return sorted((aliases, policy) for _, aliases, policy in defs)
    assert mix(one) == mix(other)
    # Repeats by construction, plus chance repeats on the small tables.
    repeated = len(one) - len({d[0] for d in one})
    assert workloads.FleetRounds.duplicate_share * len(one) <= repeated < len(one) / 2


@pytest.mark.parametrize("seed", [1, 2])
def test_derive_is_stable_and_separates_purposes(seed):
    assert workloads.derive(seed, "data") == workloads.derive(seed, "data")
    assert workloads.derive(seed, "data") != workloads.derive(seed, "views")
