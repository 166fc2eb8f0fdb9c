"""Ablation benches for the design choices DESIGN.md calls out."""

from benchmarks._report import report
from repro.experiments.ablations import (
    run_astar_heuristic_ablation,
    run_cost_family_study,
    run_estimator_ablation,
    run_plan_class_ablation,
)


def bench_astar_heuristic(run_once):
    result = run_once(run_astar_heuristic_ablation)
    report("ablation_astar_heuristic", result.format())
    assert result.costs_equal
    # The heuristic must help, and increasingly so with horizon length.
    ratios = [
        d / a for a, d in zip(result.astar_expanded, result.dijkstra_expanded)
    ]
    assert all(r >= 1.0 for r in ratios)
    assert ratios[-1] > 2.0
    # Deterministic gate: expansions are noise-free, so a weaker heuristic
    # fails here even when wall time hides it.  The ceilings are the
    # per-modification-rate bound's counts at T = 100 / 200 / 400.
    assert all(
        expanded <= ceiling
        for expanded, ceiling in zip(result.astar_expanded, (144, 306, 2257))
    )


def bench_plan_class(run_once):
    result = run_once(run_plan_class_ablation)
    report("ablation_plan_class", result.format())
    # Each LGM ingredient buys cost: EAGER > NAIVE > OPT_LGM.
    assert result.eager > result.naive > result.opt_lgm


def bench_estimators(run_once):
    result = run_once(run_estimator_ablation)
    report("ablation_estimators", result.format())
    for row in result.ratios:
        for ratio in row:
            assert ratio < 1.5


def bench_cost_families(run_once):
    result = run_once(run_cost_family_study)
    report("ablation_cost_families", result.format())
    rows = {name: ratio for name, __, __, ratio in result.rows()}
    assert rows["linear b=120"] > rows["linear b=40"]
