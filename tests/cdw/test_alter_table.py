"""ALTER TABLE execution on the CDW engine, read back by the vector
path ("columnar") and by the row interpreter ("rows"), which serves
UPDATE and MERGE over an altered table."""

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.errors import CatalogError
from tests.cdw.oracles import row_interpreter


@pytest.fixture(params=[False, True], ids=["columnar", "rows"])
def any_engine(request):
    engine = CdwEngine(store=CloudStore())
    return row_interpreter(engine) if request.param else engine


def _seed(engine):
    engine.execute("CREATE TABLE T (A VARCHAR(5), B INT)")
    engine.execute("INSERT INTO T VALUES ('x', 1)")
    engine.execute("INSERT INTO T VALUES ('y', 2)")


def test_add_column_backfills_null(any_engine):
    _seed(any_engine)
    any_engine.execute("ALTER TABLE T ADD COLUMN C VARCHAR(8)")
    assert [c.name for c in any_engine.table("T").columns] == \
        ["A", "B", "C"]
    rows = sorted(any_engine.query("SELECT A, B, C FROM T"))
    assert rows == [("x", 1, None), ("y", 2, None)]
    # new column is writable
    any_engine.execute("INSERT INTO T VALUES ('z', 3, 'r')")
    assert sorted(any_engine.query("SELECT A, C FROM T"))[-1] == \
        ("z", "r")


def test_add_column_if_not_exists_is_idempotent(any_engine):
    _seed(any_engine)
    any_engine.execute("ALTER TABLE T ADD COLUMN IF NOT EXISTS C INT")
    # replay-safe: the second ALTER is a no-op, not an error
    any_engine.execute("ALTER TABLE T ADD COLUMN IF NOT EXISTS C INT")
    assert [c.name for c in any_engine.table("T").columns] == \
        ["A", "B", "C"]


def test_add_duplicate_column_without_guard_fails(any_engine):
    _seed(any_engine)
    with pytest.raises(CatalogError):
        any_engine.execute("ALTER TABLE T ADD COLUMN A INT")


def test_rename_column_preserves_data(any_engine):
    _seed(any_engine)
    any_engine.execute("ALTER TABLE T RENAME COLUMN A TO A2")
    assert [c.name for c in any_engine.table("T").columns] == \
        ["A2", "B"]
    assert sorted(any_engine.query("SELECT A2, B FROM T")) == \
        [("x", 1), ("y", 2)]


def test_rename_unknown_column_fails(any_engine):
    _seed(any_engine)
    with pytest.raises(CatalogError):
        any_engine.execute("ALTER TABLE T RENAME COLUMN Z TO Y")
