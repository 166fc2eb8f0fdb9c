"""Differential: an attached policy governor that never acts vs none.

The adaptive runtime's contract is **idle == invisible**: a
:class:`~repro.control.governors.PolicyGovernor` subscribed to the
alert hubs and ticked every round, but whose ``escalate_after`` is
above the run's step count, buffers every alert and never switches a
policy.  This suite proves it differentially -- two identically seeded
maintenance runs, one with such a governor attached, one with no
governor object at all, must produce zero control events,
byte-identical view contents and byte-identical simulated-cost
(OperationCounter) tables across the (block_size x workers) matrix.
CI's "Gate on controller differential equivalence" step runs exactly
this file.
"""

from contextlib import nullcontext

import pytest

from repro import obs
from repro.control import PolicyGovernor
from repro.control import events as control_events
from repro.core.costfuncs import LinearCost
from repro.core.online import OnlinePolicy
from repro.engine.expr import col
from repro.engine.query import AggregateSpec, QuerySpec
from repro.ivm.multiview import MaintenanceCoordinator, ViewConfig
from repro.obs import slo
from repro.tpcr.updates import PartSuppCostUpdater
from tests.conftest import make_tpcr_db

STEPS = 6
MODS_PER_STEP = 8
COST = (LinearCost(slope=0.5, setup=2.0),)
#: Tight enough that ONLINE rides the near-breach band, so the idle
#: governor's buffers receive real alerts.
LIMIT = 20.0


def _specs() -> dict:
    return {
        "min_cost": QuerySpec(
            base_alias="PS",
            base_table="partsupp",
            aggregate=AggregateSpec(func="min", value=col("PS.supplycost")),
        ),
        "qty_by_supp": QuerySpec(
            base_alias="PS",
            base_table="partsupp",
            aggregate=AggregateSpec(
                func="sum",
                value=col("PS.availqty"),
                group_by=("PS.suppkey",),
            ),
        ),
    }


def run_fleet(with_governor: bool, block_size: int, workers: int):
    """One seeded maintenance run; returns (per-view contents, charges,
    SLO alerts fired).

    ``with_governor=True`` attaches a policy governor that cannot reach
    its escalation threshold and ticks it after every round -- the leg
    that must be indistinguishable from ``with_governor=False``.
    """
    db = make_tpcr_db(workers=workers)
    db.block_size = block_size
    coordinator = MaintenanceCoordinator(db)
    for name, spec in _specs().items():
        coordinator.add_view(
            ViewConfig(
                name=name,
                query=spec,
                policy=OnlinePolicy(),
                cost_functions=COST,
                limit=LIMIT,
                scheduled_aliases=("PS",),
            )
        )
    updater = PartSuppCostUpdater(db.table("partsupp"), seed=101)
    alerts = []
    # STEPS rounds plus the refresh: at most STEPS + 1 pressure events
    # per view, one short of the escalation threshold.
    governor = (
        PolicyGovernor(coordinator, escalate_after=STEPS + 2)
        if with_governor
        else None
    )
    # A live recorder plus a control-event sink make the check strict:
    # even with telemetry flowing into its buffers, the idle governor
    # must emit nothing and actuate nothing.
    with obs.recording(), control_events.collecting() as log, \
            slo.alerts(alerts.append), governor or nullcontext():
        for t in range(STEPS):
            updater.apply(MODS_PER_STEP)
            coordinator.step(t)
            if governor is not None:
                governor.tick(t)
        coordinator.refresh(t=STEPS)
    assert not log.events()
    contents = {
        name: maintainer.view.contents()
        for name, maintainer in coordinator.iter_maintainers()
    }
    return contents, dict(db.counter.snapshot()), len(alerts)


MATRIX = [
    pytest.param(bs, w, id=f"bs{bs}-w{w}")
    for bs in (7, 64)
    for w in (0, 2)
]


@pytest.mark.parametrize("block_size,workers", MATRIX)
def test_idle_policy_governor_is_invisible(block_size, workers):
    bare_contents, bare_charges, _ = run_fleet(
        with_governor=False, block_size=block_size, workers=workers
    )
    gov_contents, gov_charges, gov_alerts = run_fleet(
        with_governor=True, block_size=block_size, workers=workers
    )
    assert gov_contents == bare_contents
    assert gov_charges == bare_charges
    # Sanity: the run did real maintenance work, so equality above is
    # comparing populated tables, not two empty dicts.
    assert bare_contents["min_cost"]
    assert any(bare_charges.values())
    # ... and the governor had evidence to buffer, yet never acted.
    assert gov_alerts
