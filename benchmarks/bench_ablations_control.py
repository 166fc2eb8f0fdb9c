"""Closed-loop controller ablation: does the policy loop earn its keep?

Runs :func:`repro.control.ablation.run_control_ablation` -- baseline
(no governor) and the governed run (policy governor attached) over the
identical bursty SLO-pressure workload -- and asserts the loop's
load-bearing claims:

* with the policy governor attached, SLO breaches land strictly below
  baseline;
* neither variant changes view contents -- the governor moves the
  schedule, never results;
* every switch the governor makes is recorded as a ControlEvent.

The wall-time column is reported but not asserted.
"""

from benchmarks._report import report
from repro.control.ablation import run_control_ablation


def bench_control_ablation(run_once):
    result = run_once(run_control_ablation, horizon=120)
    report("ablation_control", result.format(), params=result.params)
    baseline = result.variants["baseline"]
    governed = result.variants["governed"]
    assert governed.breaches < baseline.breaches
    assert governed.view_contents == baseline.view_contents
    # The audit trail is complete: the governed run records its switch
    # as a ControlEvent, the baseline records nothing.
    assert any(e.governor == "policy" for e in governed.events)
    assert not baseline.events
