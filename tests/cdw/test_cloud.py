"""Tests for the cloud store, bulk loader, and COPY INTO."""

from array import array

import pytest

from repro.cdw import stagefile
from repro.cdw.bulkloader import CloudBulkLoader
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.errors import BulkExecutionError, CdwError, StorageError


class TestCloudStore:
    def test_put_get(self):
        store = CloudStore()
        store.create_container("c")
        store.put_blob("c", "a/b.csv", b"data")
        assert store.get_blob("c", "a/b.csv") == b"data"

    def test_missing_container_raises(self):
        store = CloudStore()
        with pytest.raises(StorageError):
            store.put_blob("nope", "x", b"")
        with pytest.raises(StorageError):
            store.get_blob("nope", "x")

    def test_missing_blob_raises(self):
        store = CloudStore()
        store.create_container("c")
        with pytest.raises(StorageError):
            store.get_blob("c", "missing")

    def test_list_prefix_sorted(self):
        store = CloudStore()
        store.create_container("c")
        for name in ("j1/b", "j1/a", "j2/z"):
            store.put_blob("c", name, b"")
        assert store.list_blobs("c", "j1/") == ["j1/a", "j1/b"]

    def test_delete_prefix(self):
        store = CloudStore()
        store.create_container("c")
        store.put_blob("c", "j1/a", b"")
        store.put_blob("c", "j2/b", b"")
        assert store.delete_prefix("c", "j1/") == 1
        assert store.list_blobs("c") == ["j2/b"]

    def test_url_parsing(self):
        assert CloudStore.parse_url("store://cont/pre/fix") == \
            ("cont", "pre/fix")
        assert CloudStore.make_url("c", "p/") == "store://c/p/"
        with pytest.raises(StorageError):
            CloudStore.parse_url("s3://bucket/x")
        with pytest.raises(StorageError):
            CloudStore.parse_url("store://")

    def test_upload_accounting(self):
        store = CloudStore()
        store.create_container("c")
        store.put_blob("c", "a", b"12345")
        assert store.bytes_uploaded == 5
        assert store.upload_count == 1

    def test_bandwidth_delay(self):
        import time
        store = CloudStore(bandwidth_bytes_per_s=10_000)
        store.create_container("c")
        started = time.perf_counter()
        store.put_blob("c", "a", b"x" * 1000)  # 0.1s at 10 KB/s
        assert time.perf_counter() - started >= 0.08


class TestBulkLoader:
    def test_upload_file(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_bytes(b"row1\nrow2\n")
        store = CloudStore()
        store.create_container("c")
        loader = CloudBulkLoader(store)
        report = loader.upload_file(str(path), "c", "job/")
        assert report.files == 1
        assert store.get_blob("c", "job/part.csv") == b"row1\nrow2\n"

    def test_upload_with_compression(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_bytes(b"abc" * 1000)
        store = CloudStore()
        store.create_container("c")
        loader = CloudBulkLoader(store, compression="gzip")
        report = loader.upload_file(str(path), "c", "job/")
        assert report.uploaded_bytes < report.raw_bytes
        assert report.compression_ratio > 1
        fetched = loader.fetch_decoded("c", "job/part.csv.gz")
        assert fetched == b"abc" * 1000

    def test_unknown_compression_rejected(self):
        with pytest.raises(StorageError):
            CloudBulkLoader(CloudStore(), compression="zstd")


class TestCopyInto:
    def _engine_with_blobs(self, blobs, gzip_names=()):
        store = CloudStore()
        store.create_container("stage")
        for name, rows in blobs.items():
            data = stagefile.encode_csv_rows(rows)
            if name in gzip_names:
                data = stagefile.compress(data)
                name += ".gz"
            store.put_blob("stage", name, data)
        engine = CdwEngine(store=store)
        engine.execute("CREATE TABLE t (K INT, V NVARCHAR(10))")
        return engine

    def test_copy_multiple_blobs(self):
        engine = self._engine_with_blobs({
            "j/p0.csv": [("1", "a")],
            "j/p1.csv": [("2", "b"), ("3", None)],
        })
        result = engine.execute(
            "COPY INTO t FROM 'store://stage/j/' FORMAT csv")
        assert result.rows_inserted == 3
        assert engine.query("SELECT K, V FROM t ORDER BY K") == \
            [(1, "a"), (2, "b"), (3, None)]

    def test_copy_gzip_blob(self):
        engine = self._engine_with_blobs(
            {"j/p0.csv": [("1", "a")]}, gzip_names={"j/p0.csv"})
        result = engine.execute(
            "COPY INTO t FROM 'store://stage/j/' FORMAT csv")
        assert result.rows_inserted == 1

    def test_copy_bad_row_aborts_everything(self):
        engine = self._engine_with_blobs({
            "j/p0.csv": [("1", "a"), ("junk-int", "b")],
        })
        with pytest.raises(BulkExecutionError):
            engine.execute("COPY INTO t FROM 'store://stage/j/'")
        assert engine.query("SELECT COUNT(*) FROM t") == [(0,)]

    def test_copy_without_store_raises(self):
        engine = CdwEngine()
        engine.execute("CREATE TABLE t (K INT)")
        from repro.errors import CdwError
        with pytest.raises(CdwError):
            engine.execute("COPY INTO t FROM 'store://stage/j/'")

    def test_copy_unknown_format_raises_before_reading_a_blob(self):
        engine = self._engine_with_blobs({"j/p0.csv": [("1", "a")]})
        reads = []
        get_blob = engine.store.get_blob
        engine.store.get_blob = lambda *args: reads.append(args) or \
            get_blob(*args)
        with pytest.raises(CdwError, match="parquet"):
            engine.execute(
                "COPY INTO t FROM 'store://stage/j/' FORMAT parquet")
        assert reads == []
        assert engine.query("SELECT COUNT(*) FROM t") == [(0,)]

    @pytest.mark.parametrize("keys, lands", [
        (["ab", "é€", "😀😀😀"], True),    # long in bytes, short in chars
        (["ab", "abcd", "c"], False),       # one key too long
        (["ab", None, "c"], False),         # NULL into NOT NULL
        (["ab", "c", "ab", "d"], False),    # a duplicate key
    ], ids=["fits", "too-long", "null", "duplicate"])
    def test_block_copy_checks_like_csv(self, keys, lands):
        """A block COPY into a ``VARCHAR(n) NOT NULL UNIQUE`` column
        lands the rows, or raises the error, that ``FORMAT csv`` does."""
        rows = [(key, f"v{i}", i) for i, key in enumerate(keys)]
        outcomes = []
        for file_format in ("csv", "block"):
            store = CloudStore()
            store.create_container("stage")
            data = stagefile.encode_csv_rows(rows) \
                if file_format == "csv" else stagefile.encode_block(
                    array("q", [row[2] for row in rows]),
                    [stagefile.values_column([row[i] for row in rows])
                     for i in range(2)])
            store.put_blob("stage", "j/p0", data)
            engine = CdwEngine(store=store)
            engine.execute("CREATE TABLE t (K VARCHAR(3) NOT NULL, "
                           "V NVARCHAR, __SEQ BIGINT, UNIQUE (K))")
            try:
                engine.execute(
                    f"COPY INTO t FROM 'store://stage/j/' FORMAT "
                    f"{file_format}")
            except BulkExecutionError as exc:
                outcome = ("raise", str(exc), exc.kind, exc.field)
            else:
                outcome = ("ok",)
            outcomes.append(outcome + (list(engine.table("t").rows),))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] == "ok") == lands

    def test_copy_format_block_appends_in_seq_order(self):
        store = CloudStore()
        store.create_container("stage")
        late = stagefile.encode_block(
            array("q", [7]), [stagefile.values_column(["late"])])
        early = stagefile.encode_block(
            array("q", [2, 5]), [stagefile.values_column(["a", None])])
        store.put_blob("stage", "j/p0.blk", late)
        store.put_blob("stage", "j/p1.blk", early)
        engine = CdwEngine(store=store)
        engine.execute("CREATE TABLE s (V NVARCHAR, __SEQ BIGINT)")
        result = engine.execute(
            "COPY INTO s FROM 'store://stage/j/' FORMAT block")
        assert result.rows_inserted == 3
        assert list(engine.catalog.get("s").rows) == \
            [("a", 2), (None, 5), ("late", 7)]
        # A second COPY appends behind the rows already stored.
        store.put_blob("stage", "k/p0.blk", stagefile.encode_block(
            array("q", [9]), [stagefile.values_column(["é"])]))
        engine.execute("COPY INTO s FROM 'store://stage/k/' FORMAT block")
        assert engine.query("SELECT V FROM s WHERE __SEQ > 5") == \
            [("late",), ("é",)]
