"""Differential tests: profiled execution == unprofiled execution.

Attribution (:mod:`repro.obs.attrib`) is observational by contract --
nodes copy charges the operators already made, never charging anything
themselves.  These tests enforce the contract the way the block/parallel
refactors are enforced: run the same workload twice on identical fresh
databases, once with ``profile=True`` (or a global sink installed) and
once without, and require byte-identical result rows **and**
byte-identical :class:`OperationCounter` cost tables across a
(block_size x workers x backend) grid, including the TPC-R paper query.

Also here: the profile's summed tally must equal the counter's delta for
the query -- attribution is *complete*, not just harmless.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.ivm.maintenance import apply_batch
from repro.ivm.view import MaterializedView
from repro.obs import attrib
from repro.tpcr.gen import load_tpcr
from repro.tpcr.updates import SupplierNationUpdater
from tests.conftest import TEST_SCALE, make_paper_spec, make_tpcr_db
from tests.integration.test_block_equivalence import (
    SEEDS,
    build_db,
    hash_join_specs,
    profile_shape,
    query_specs,
    unshare_snapshots,
)

#: The acceptance grid: small/default blocks, serial/parallel, both pools.
CONFIGS = (
    # (block_size, workers, backend)
    (64, 0, "thread"),
    (7, 0, "thread"),
    (64, 2, "thread"),
    (7, 2, "thread"),
    (64, 2, "process"),
)


def run_specs(specs, block_size, workers, backend, seed, profile):
    """Fresh DB, run every spec, return (rows, charges, profiles)."""
    profiles = []
    with build_db(
        block_size, seed, workers, backend=backend, index_dim=False
    ) as db:
        rows = []
        for spec in specs(seed):
            before = db.counter.snapshot()
            result = db.execute(spec, profile=profile)
            after = db.counter.snapshot()
            rows.append(result.rows)
            if profile:
                delta = {
                    f: after[f] - before[f]
                    for f in after
                    if after[f] != before[f]
                }
                profiles.append((result.profile, delta))
        return rows, db.counter.snapshot(), profiles


class TestAnalyzeEquivalence:
    @pytest.mark.parametrize("block_size,workers,backend", CONFIGS)
    def test_cost_tables_identical_with_and_without_profiling(
        self, block_size, workers, backend
    ):
        for seed in SEEDS[:2]:
            for specs in (query_specs, hash_join_specs):
                ref_rows, ref_charges, __ = run_specs(
                    specs, block_size, workers, backend, seed, profile=False
                )
                rows, charges, profiles = run_specs(
                    specs, block_size, workers, backend, seed, profile=True
                )
                assert rows == ref_rows, (
                    f"rows diverge under profiling at block_size="
                    f"{block_size} workers={workers} backend={backend}"
                )
                assert charges == ref_charges, (
                    f"simulated charges diverge under profiling at "
                    f"block_size={block_size} workers={workers} "
                    f"backend={backend}"
                )
                # Completeness: every charge the query made is attributed
                # to some plan node -- the profile total IS the delta.
                for profile, delta in profiles:
                    assert profile is not None
                    assert profile.total_tally() == delta

    @pytest.mark.parametrize("block_size,workers,backend", CONFIGS)
    def test_sink_mode_is_charge_neutral(self, block_size, workers, backend):
        seed = SEEDS[0]
        ref_rows, ref_charges, __ = run_specs(
            query_specs, block_size, workers, backend, seed, profile=False
        )
        captured: list[dict] = []
        previous = attrib.set_profile_sink(captured.append)
        try:
            rows, charges, __ = run_specs(
                query_specs, block_size, workers, backend, seed, profile=None
            )
        finally:
            attrib.set_profile_sink(previous)
        assert rows == ref_rows
        assert charges == ref_charges
        assert len(captured) == len(query_specs(seed))


def make_tpcr_parallel_db(workers: int) -> Database:
    """The paper's physical design at an explicit worker count."""
    db = Database(workers=workers)
    load_tpcr(db, scale=TEST_SCALE, seed=42)
    db.table("supplier").create_index("suppkey")
    db.table("nation").create_index("nationkey")
    db.table("region").create_index("regionkey")
    return db


class TestPaperQueryProfile:
    """The acceptance scenario: a per-operator profile of the TPC-R
    join-aggregate query under workers in {0, 2}, with byte-identical
    cost tables between the profiled and unprofiled runs."""

    @pytest.mark.parametrize("workers", (0, 2))
    def test_paper_query_profiled_matches_unprofiled(self, workers):
        spec = make_paper_spec()

        def run(profile):
            with make_tpcr_parallel_db(workers) as db:
                result = db.execute(spec, profile=profile)
                return result, db.counter.snapshot()

        plain, plain_charges = run(False)
        profiled, profiled_charges = run(True)
        assert profiled.rows == plain.rows
        assert profiled_charges == plain_charges
        profile = profiled.profile
        assert profile is not None
        # The tree names the paper's physical plan: index-NL joins up the
        # dimension chain under a scalar MIN.
        text = attrib.render_profile(profile)
        assert "SeqScan(partsupp AS PS)" in text
        assert "IndexNestedLoopJoin" in text
        assert "Aggregate(MIN" in text
        assert profile.query == "partsupp ⋈ supplier ⋈ nation ⋈ region → MIN"

    def test_explain_analyze_does_not_disturb_later_queries(self):
        db = make_tpcr_db()
        reference = make_tpcr_db()
        spec = make_paper_spec()
        db.explain(spec, analyze=True)

        def delta(database):
            before = database.counter.snapshot()
            database.execute(spec)
            after = database.counter.snapshot()
            return {f: after[f] - before[f] for f in after}

        assert delta(db) == delta(reference)


class TestSharedSnapshotBuild:
    """One Supplier batch runs a delete and an insert query over the same
    PartSupp snapshot; they share its hash build.  Their profiles and
    cost tables must equal those of two fresh builds."""

    @staticmethod
    def run_batch(workers, fresh):
        captured: list[dict] = []
        with pytest.MonkeyPatch.context() as patch:
            if fresh:
                unshare_snapshots(patch)
            with make_tpcr_parallel_db(workers) as db:
                view = MaterializedView("v", db, make_paper_spec())
                SupplierNationUpdater(db.table("supplier"), seed=5).apply(3)
                view.deltas["S"].pull()
                previous = attrib.set_profile_sink(captured.append)
                try:
                    apply_batch(view, "S", 3)
                finally:
                    attrib.set_profile_sink(previous)
                return (
                    [profile_shape(p["root"]) for p in captured],
                    [p["tally"] for p in captured],
                    db.counter.snapshot(),
                    view.contents(),
                )

    @pytest.mark.parametrize("workers", (0, 2))
    def test_batch_queries_match_fresh_builds(self, workers):
        shared = self.run_batch(workers, fresh=False)
        assert len(shared[0]) == 2  # the delete and the insert query
        assert "Build(SeqScan(partsupp AS PS))" in repr(shared[0])
        assert shared == self.run_batch(workers, fresh=True)
