"""Closed-loop adaptive runtime: the policy loop that consumes the telemetry.

:class:`~repro.control.governors.PolicyGovernor` listens to the
``slo.*`` alert hub and the calibration-drift hub and switches a view's
scheduling policy (:meth:`~repro.ivm.maintainer.ViewMaintainer.set_policy`)
between rounds.  Every switch is recorded as a
:class:`~repro.control.events.ControlEvent` in a bounded log with
``control.*`` metrics, a ``/control`` HTTP route, and the
``repro control-log`` CLI renderer.  The ablation harness
(:mod:`repro.control.ablation`, ``benchmarks/bench_ablations_control.py``)
scores the loop against an ungoverned baseline.
"""

from repro.control.events import (
    ControlEvent,
    ControlLog,
    collecting,
    get_control_log,
    render_control_log,
    set_control_log,
)
from repro.control.governors import PolicyGovernor

__all__ = [
    "ControlEvent",
    "ControlLog",
    "PolicyGovernor",
    "collecting",
    "get_control_log",
    "render_control_log",
    "set_control_log",
]
