"""__SEQ zone-map pruning: sliced scans must equal the full-scan oracle.

The engine pushes ``__SEQ BETWEEN lo AND hi`` down to a binary-searched
slice of a staging table kept physically sorted on ``__SEQ``
(:meth:`CdwTable.set_sorted` / :meth:`seq_slice`).  The property under
test: for *any* range — including ranges emptied by adaptive skips and
after out-of-order inserts — a pruned SELECT/UPDATE/DELETE touches
exactly the rows the unpruned full scan would.  The oracle is the same
table *without* ``set_sorted``: the disarmed full-scan path production
already takes for unsorted tables.
"""

import random

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.errors import CatalogError


def make_engine() -> CdwEngine:
    return CdwEngine(store=CloudStore())


def seed_staging(engine, seqs, zone_map: bool = True):
    engine.execute("CREATE TABLE STG (V NVARCHAR, __SEQ BIGINT)")
    table = engine.table("STG")
    table.append_rows([(f"v{s}", s) for s in seqs])
    if zone_map:
        table.set_sorted("__SEQ")
    return table


class TestSeqSlice:
    def test_slice_matches_oracle_for_random_ranges(self):
        rng = random.Random(20230325)
        seqs = sorted(rng.sample(range(10_000), 600))
        engine = make_engine()
        table = seed_staging(engine, seqs)
        for _ in range(200):
            lo = rng.randrange(-100, 10_100)
            hi = lo + rng.randrange(0, 2_000)
            start, stop = table.seq_slice(lo, hi)
            got = [r[1] for r in table.rows[start:stop]]
            assert got == [s for s in seqs if lo <= s <= hi]

    def test_empty_ranges_from_adaptive_skips(self):
        """Ranges the adaptive handler emptied (every seq rejected or
        already applied) slice to nothing, in O(log n)."""
        engine = make_engine()
        table = seed_staging(engine, [0, 1, 2, 50, 51, 52])
        for lo, hi in ((3, 49), (53, 10_000), (-10, -1)):
            start, stop = table.seq_slice(lo, hi)
            assert start == stop

    def test_out_of_order_appends_keep_slices_correct(self):
        """Eager copies land blob-by-blob out of __SEQ order; the zone
        map must re-establish sortedness before slicing."""
        rng = random.Random(7)
        engine = make_engine()
        table = seed_staging(engine, [])
        batches = [list(range(b * 100, b * 100 + 100))
                   for b in range(8)]
        rng.shuffle(batches)
        for batch in batches:
            table.append_rows([(f"v{s}", s) for s in batch])
        all_seqs = sorted(s for b in batches for s in b)
        for _ in range(50):
            lo = rng.randrange(0, 800)
            hi = lo + rng.randrange(0, 300)
            start, stop = table.seq_slice(lo, hi)
            assert [r[1] for r in table.rows[start:stop]] == \
                [s for s in all_seqs if lo <= s <= hi]

    def test_seq_slice_requires_armed_zone_map(self):
        engine = make_engine()
        engine.execute("CREATE TABLE T (A INT)")
        with pytest.raises(CatalogError):
            engine.table("T").seq_slice(0, 10)


class TestPrunedStatements:
    """End-to-end: engine statements with BETWEEN on the sort column
    return/affect the same rows with the zone map armed and not."""

    STATEMENTS = [
        "SELECT V FROM STG WHERE __SEQ BETWEEN {lo} AND {hi}",
        "SELECT COUNT(*) FROM STG WHERE __SEQ BETWEEN {lo} AND {hi} "
        "AND V <> 'v3'",
    ]

    def _pair(self, seed):
        """(pruned, full): twin engines, only the first zone-mapped."""
        seqs = sorted(random.Random(seed).sample(range(2_000), 300))
        pruned, full = make_engine(), make_engine()
        seed_staging(pruned, seqs)
        seed_staging(full, seqs, zone_map=False)
        return pruned, full

    def test_select_matches_unpruned_engine(self):
        rng = random.Random(99)
        pruned, full = self._pair(1)
        skipped, unpruned = [], []
        pruned.on_scan_pruned = skipped.append
        full.on_scan_pruned = unpruned.append
        for _ in range(40):
            lo = rng.randrange(0, 2_000)
            hi = lo + rng.randrange(0, 700)
            for template in self.STATEMENTS:
                sql = template.format(lo=lo, hi=hi)
                assert sorted(pruned.query(sql)) == \
                    sorted(full.query(sql)), sql
        assert sum(skipped) > 0  # pruning actually engaged...
        assert not unpruned      # ...and only on the zone-mapped twin

    def test_dml_matches_unpruned_engine(self):
        for sql in (
                "DELETE FROM STG WHERE __SEQ BETWEEN 500 AND 899",
                "UPDATE STG SET V = 'hit' "
                "WHERE __SEQ BETWEEN 200 AND 450",
        ):
            pruned, full = self._pair(5)
            pruned.execute(sql)
            full.execute(sql)
            assert sorted(pruned.query("SELECT * FROM STG")) == \
                sorted(full.query("SELECT * FROM STG")), sql

    def test_update_of_sort_column_disarms_zone_map(self):
        engine = make_engine()
        table = seed_staging(engine, list(range(10)))
        engine.execute("UPDATE STG SET __SEQ = 99 WHERE __SEQ = 0")
        assert table.sorted_by is None
        # Correctness survives: full scans take over.
        assert engine.query(
            "SELECT COUNT(*) FROM STG WHERE __SEQ BETWEEN 90 AND 100"
        ) == [(1,)]

    def test_merge_into_zone_mapped_table_disarms_it(self):
        engine = make_engine()
        table = seed_staging(engine, [1, 2, 3])
        engine.execute("CREATE TABLE SRC (V NVARCHAR, __SEQ BIGINT)")
        engine.table("SRC").append_rows([("new", 0)])
        engine.execute(
            "MERGE INTO STG USING SRC ON STG.__SEQ = SRC.__SEQ "
            "WHEN NOT MATCHED THEN INSERT VALUES (SRC.V, SRC.__SEQ)")
        assert table.sorted_by is None


class TestTruncateKeepsZoneMap:
    """Beta's emulation rollback truncates the staging suffix; the
    zone map must stay armed so rows appended afterwards still slice
    correctly."""

    def test_truncate_then_append_slices_match_oracle(self):
        engine = make_engine()
        table = seed_staging(engine, list(range(500)))
        assert table.sorted_by == "__SEQ"

        table.truncate_rows(300)            # rollback to seq < 300
        assert table.sorted_by == "__SEQ", \
            "suffix truncation cannot disturb the sort order"

        # rows re-land after the rollback point
        table.append_rows([(f"r{s}", s) for s in range(300, 420)])
        assert table.sorted_by == "__SEQ"
        live = list(range(420))
        for lo, hi in ((0, 99), (250, 350), (280, 10_000),
                       (419, 419), (420, 500), (-5, -1)):
            start, stop = table.seq_slice(lo, hi)
            got = [r[1] for r in table.rows[start:stop]]
            assert got == [s for s in live if lo <= s <= hi], (lo, hi)

    def test_truncated_range_queries_through_engine(self):
        engine = make_engine()
        table = seed_staging(engine, list(range(100)))
        table.truncate_rows(40)
        table.append_rows([(f"r{s}", s) for s in range(40, 70)])
        assert engine.query(
            "SELECT COUNT(*) FROM STG WHERE __SEQ BETWEEN 30 AND 80"
        ) == [(40,)]
