"""Tests for the cloud store, bulk loader, and COPY INTO."""

import pytest

from repro.cdw import stagefile
from repro.cdw.bulkloader import CloudBulkLoader
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.errors import BulkExecutionError, StorageError


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
