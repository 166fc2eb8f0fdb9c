"""Incrementally derived, shared MVCC snapshots.

A snapshot's rows are derived from the table's write-maintained live set
and kill log instead of a pass over every stored version.  These tests
hold the derivation to the definition: under random insert / update /
delete / vacuum sequences, a snapshot at any LSN -- requested in any
order, behind or at the head -- must equal a brute-force ``visible_at``
filter over the stored versions, in the same (rid) order.  They also pin
the sharing contract (one object per most-recent LSN, nothing cached
survives a vacuum) and the work bound reported as
``engine.snapshot.versions_examined``.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import obs
from repro.engine.database import Database
from repro.engine.query import JoinSpec, QuerySpec
from repro.engine.table import ModEvent, RowVersion, Table
from repro.engine.types import ColumnType, Schema

KEYS = range(4)


def brute_force(table: Table, lsn: int) -> list[tuple]:
    return [v.values for v in table._versions if v.visible_at(lsn)]


def assert_matches_brute_force(table: Table, lsn: int) -> None:
    snapshot = table.snapshot(lsn)
    expected = brute_force(table, lsn)
    assert snapshot.row_list() == expected
    assert snapshot.count() == len(expected)
    for key in KEYS:
        assert snapshot.lookup("k", key) == [
            row for row in expected if row[0] == key
        ]


operation = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 3), st.integers(-9, 9)),
    st.tuples(st.just("update"), st.integers(0, 10**6), st.integers(-9, 9)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("vacuum"), st.floats(0, 1)),
    st.tuples(st.just("snapshot"), st.floats(0, 1)),
)


@given(st.lists(operation, max_size=60), st.lists(st.floats(0, 1), max_size=6))
@settings(max_examples=150, deadline=None)
def test_snapshots_equal_brute_force_visibility(operations, final_reads):
    table = Table("t", Schema.of(k=ColumnType.INT, v=ColumnType.INT))
    table.create_index("k")
    for op in operations:
        live = table.find_rids(lambda row: True)
        kind = op[0]
        if kind == "insert":
            table.insert((op[1], op[2]))
        elif kind == "update" and live:
            table.update_rid(live[op[1] % len(live)], {"v": op[2]})
        elif kind == "delete" and live:
            table.delete_rid(live[op[1] % len(live)])
        elif kind == "vacuum":
            before = table.snapshot(table.current_lsn)
            table.vacuum(round(op[1] * table.current_lsn))
            # Nothing cached may outlive the compaction (rids changed).
            assert table._snapshot is None
            after = table.snapshot(table.current_lsn)
            assert after is not before
            assert after.hash_builds == {}
        elif kind == "snapshot":
            assert_matches_brute_force(table, round(op[1] * table.current_lsn))
        assert table.live_count == len(brute_force(table, table.current_lsn))
    # Reads in arbitrary LSN order after the history is complete.
    for fraction in final_reads:
        lsn = round(fraction * table.current_lsn)
        assert_matches_brute_force(table, lsn)
        assert table.snapshot(lsn) is table.snapshot(lsn)


def test_same_lsn_shares_one_snapshot_until_another_is_requested():
    table = Table("t", Schema.of(k=ColumnType.INT, v=ColumnType.INT))
    for i in range(5):
        table.insert((i, i))
    first = table.snapshot(3)
    assert table.snapshot(3) is first
    assert table.snapshot() is not first  # head LSN 5: a new snapshot
    assert table.snapshot(5) is table.snapshot()
    table.insert((9, 9))
    assert table.snapshot(5) is not table.snapshot(6)


def test_cached_snapshot_does_not_keep_its_table_alive():
    """The table holds its snapshot; the snapshot must not hold the table
    strongly, or every table would be a reference cycle that outlives its
    last user until a cyclic collection."""
    gc.disable()
    try:
        table = Table("t", Schema.of(k=ColumnType.INT, v=ColumnType.INT))
        table.insert((1, 1))
        table.snapshot().row_list()
        alive = weakref.ref(table)
        del table
        assert alive() is None
    finally:
        gc.enable()


def _examined(snapshot) -> int:
    with obs.recording() as recorder:
        snapshot.row_list()
    metric = recorder.registry.get("engine.snapshot.versions_examined")
    return metric.value if metric is not None else 0


def test_versions_examined_bounded_by_live_plus_lag():
    """A long update history: 40 rows, 2000 versions.  A snapshot k
    modifications behind the head examines at most live + k versions,
    not the whole history."""
    table = Table("t", Schema.of(k=ColumnType.INT, v=ColumnType.INT))
    for i in range(40):
        table.insert((i % 4, i))
    step = 0
    while table.version_count() < 2000:
        live = table.find_rids(lambda row: True)
        rid = live[(step * 7) % len(live)]
        if step % 50 == 49:
            table.delete_rid(rid)
            table.insert((step % 4, step))
        else:
            table.update_rid(rid, {"v": step})
        step += 1
    head = table.current_lsn
    live = table.live_count
    for k in (0, 1, 5, 60, 400):
        examined = _examined(table.snapshot(head - k))
        assert examined <= live + k, (k, examined)
        assert table.snapshot(head - k).row_list() == brute_force(table, head - k)
    assert _examined(table.snapshot(head)) == live
    assert _examined(table.snapshot(head)) == 0  # shared: already derived
    # The old full pass examined every stored version.
    assert live + 400 < table.version_count() // 4


def test_shared_snapshot_reuses_one_hash_build():
    """Two queries at one LSN share the snapshot and its hash build."""
    db = Database(block_size=16)
    fact = db.create_table("fact", Schema.of(k=ColumnType.INT, a=ColumnType.INT))
    dim = db.create_table("dim", Schema.of(k=ColumnType.INT, b=ColumnType.INT))
    for i in range(30):
        fact.insert((i % 5, i))
        dim.insert((i % 7, -i))
    spec = QuerySpec(
        base_alias="F",
        base_table="fact",
        joins=(JoinSpec("D", "dim", "F.k", "k"),),
    )
    first = db.execute(spec).rows
    builds = dim.snapshot().hash_builds
    assert len(builds) == 1
    table = next(iter(builds.values()))
    assert db.execute(spec).rows == first
    assert next(iter(dim.snapshot().hash_builds.values())) is table
    dim.vacuum()
    assert dim.snapshot().hash_builds == {}


def test_row_version_and_mod_event_are_slotted_and_pickle():
    event = ModEvent(lsn=3, kind="update", old_values=(1, "a"), new_values=(1, "b"))
    version = RowVersion(values=(1, "a"), xmin=2, xmax=5)
    for obj in (event, version):
        assert not hasattr(obj, "__dict__")
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol=protocol)) == obj
