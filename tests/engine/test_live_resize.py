"""Worker-count resolution: fixed at construction, never resized live.

``workers`` is a read-only property, and a database still riding the
process-global worker default warns -- once -- when that default moves
after construction instead of silently ignoring it.
"""

import warnings

import pytest

from repro.engine.database import Database
from repro.engine.expr import col, lit
from repro.engine.parallel import (
    BACKEND_ENV,
    WORKERS_ENV,
    set_default_backend,
    set_default_workers,
)
from repro.engine.query import QuerySpec
from repro.engine.types import ColumnType, Schema


@pytest.fixture(autouse=True)
def _clean_parallel_defaults(monkeypatch):
    """Isolate each test from CLI/env worker configuration."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    set_default_workers(None)
    set_default_backend(None)
    yield
    set_default_workers(None)
    set_default_backend(None)


def make_db(rows=300, block_size=64, **kwargs):
    db = Database(block_size=block_size, **kwargs)
    table = db.create_table(
        "t", Schema.of(k=ColumnType.INT, val=ColumnType.FLOAT)
    )
    for i in range(rows):
        table.insert((i, float(i) * 1.5))
    return db


def chain_spec():
    return QuerySpec(
        base_alias="T",
        base_table="t",
        filters=(col("T.k") >= lit(0),),
        projection=("T.val",),
    )


class TestWorkersProperty:
    def test_workers_property_is_read_only(self):
        with make_db(workers=1) as db:
            with pytest.raises(AttributeError):
                db.workers = 4
            assert db.workers == 1


class TestStaleDefaultWarning:
    def test_warns_once_when_global_default_moves(self):
        with make_db() as db:  # workers=None: rides the global default
            set_default_workers(2)
            with pytest.warns(
                RuntimeWarning, match="construct a new Database"
            ):
                db.execute(chain_spec())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                db.execute(chain_spec())  # second query: silent

    def test_explicit_workers_never_warn(self):
        with make_db(workers=1) as db:
            set_default_workers(3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                db.execute(chain_spec())
