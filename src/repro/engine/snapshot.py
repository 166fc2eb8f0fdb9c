"""Point-in-time reads over versioned tables.

A :class:`Snapshot` is a lightweight view of a table *as of* a particular
LSN.  Its row list is derived on first use from the table's live set and
kill log (see :mod:`repro.engine.table`), at a cost proportional to the
live rows plus the modifications between the snapshot's LSN and the head
-- in either direction, for a lagging reader as for a current one.  All
physical operators read through snapshots, which is what lets incremental
view maintenance join a delta batch against base tables at exactly the
state the view has incorporated (see :mod:`repro.engine.table` for why).

A snapshot also caches what its readers derive from it: index-probe
results and, per key column, the hash table a :class:`~repro.engine.join.HashJoin`
builds over a bare scan of it.  Both are pure functions of the (fixed)
visible rows, so the table hands one shared snapshot to every reader at
the same LSN.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Hashable, Iterator

from repro import obs
from repro.engine.errors import ExecutionError

if TYPE_CHECKING:  # circular import guard; Table imports Snapshot
    from repro.engine.table import Table

_XMIN = attrgetter("xmin")


class Snapshot:
    """A read-only view of ``table`` at modification LSN ``lsn``."""

    def __init__(self, table: "Table", lsn: int):
        # Weak: the table keeps its most recent snapshot, and a strong
        # reference back would make every table a cycle that outlives its
        # last user until the cyclic garbage collector runs.
        self._table = weakref.ref(table)
        self.lsn = lsn
        self._count: int | None = None
        self._visible: list[tuple] | None = None
        self._lookup_cache: dict[tuple, list[tuple]] = {}
        #: key position -> hash table built over a bare scan of this
        #: snapshot (see :class:`~repro.engine.join.HashJoin`).
        self.hash_builds: dict[int, dict] = {}

    @property
    def table(self) -> "Table":
        """The table this snapshot reads."""
        table = self._table()
        if table is None:
            raise ExecutionError(
                f"snapshot at LSN {self.lsn}: its table no longer exists"
            )
        return table

    @property
    def schema(self):
        """The underlying table's schema."""
        return self.table.schema

    @property
    def name(self) -> str:
        """The underlying table's name."""
        return self.table.name

    def rows(self) -> Iterator[tuple]:
        """Iterate rows visible at this snapshot (no cost charged here;
        operators charge scans)."""
        return iter(self.row_list())

    def row_list(self) -> list[tuple]:
        """All visible rows in rid order, materialized once and cached.

        Derived from the table's write-maintained state rather than a pass
        over every stored version: the versions created after this LSN
        are a rid suffix (rids grow with creation), so the live rows below
        that suffix are a prefix of the live set; the versions killed
        after this LSN are a suffix of the kill log, and those created at
        or before it are merged back in rid order.  Versions examined:
        live rows + modifications since this LSN, reported as
        ``engine.snapshot.versions_examined``.

        The visibility predicate at a fixed LSN is immutable even as the
        table keeps mutating (later inserts have ``xmin > lsn``; later
        deletes set ``xmax > lsn``), so the result serves every reader of
        this snapshot.  Callers must not mutate the returned list.
        """
        if self._visible is None:
            lsn = self.lsn
            table = self.table
            versions = table._versions
            live = table._live
            killed = table._killed
            cut = bisect_right(versions, lsn, key=_XMIN)
            created_after = versions[cut:]
            keep = len(live) - sum(1 for v in created_after if v.xmax is None)
            rows = list(islice(live.values(), keep))
            start = bisect_right(
                killed, lsn, key=lambda rid: versions[rid].xmax
            )
            restored = sorted(rid for rid in killed[start:] if rid < cut)
            if restored:
                rids = list(islice(live, keep))
                merged: list[tuple] = []
                pos = 0
                for rid in restored:
                    at = bisect_left(rids, rid, pos)
                    merged += rows[pos:at]
                    merged.append(versions[rid].values)
                    pos = at
                merged += rows[pos:]
                rows = merged
            obs.counter(
                "engine.snapshot.versions_examined",
                keep + len(created_after) + len(restored),
            )
            self._visible = rows
            self._count = len(rows)
        return self._visible

    def count(self) -> int:
        """Number of visible rows (computed once, then cached)."""
        if self._count is None:
            self.row_list()
        return self._count

    def lookup(self, column: str, key: Hashable) -> list[tuple]:
        """Visible rows with ``column == key`` via an index, if one exists.

        Raises ``LookupError`` if no index covers ``column``; operators use
        :meth:`has_index` to decide between index and scan access paths.
        """
        cached = self._lookup_cache.get((column, key))
        if cached is not None:
            return cached
        table = self.table
        index = table.index_on(column)
        if index is None:
            raise LookupError(f"no index on {self.name}.{column}")
        out = []
        for rid in index.lookup(key):
            version = table.version(rid)
            if version.visible_at(self.lsn):
                out.append(version.values)
        # Visibility at a fixed LSN never changes, so the probe result is a
        # pure function of (column, key) -- cache it for repeated join keys.
        # Callers must not mutate the returned list.
        self._lookup_cache[(column, key)] = out
        return out

    def has_index(self, column: str) -> bool:
        """Whether an index-assisted lookup on ``column`` is available.

        Indexes are version-aware (dead versions stay indexed and are
        filtered by visibility), so index access works at any snapshot LSN.
        """
        return self.table.index_on(column) is not None

    def column_position(self, column: str) -> int:
        """Position of ``column`` in stored rows."""
        return self.schema.position(column)

    def column_values(self, column: str) -> Iterator[Any]:
        """Iterate one column of the visible rows."""
        pos = self.schema.position(column)
        for row in self.rows():
            yield row[pos]

    def __repr__(self) -> str:
        return f"Snapshot({self.name!r}, lsn={self.lsn})"
