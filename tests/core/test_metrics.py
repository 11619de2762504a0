"""JobMetrics and Stopwatch tests."""

import time

from repro.core.metrics import JobMetrics, Stopwatch


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        watch.start()
        time.sleep(0.02)
        watch.stop()
        first = watch.elapsed
        assert first >= 0.015
        watch.start()
        time.sleep(0.02)
        watch.stop()
        assert watch.elapsed > first

    def test_idempotent_start_stop(self):
        watch = Stopwatch()
        watch.start()
        watch.start()  # no-op
        watch.stop()
        elapsed = watch.elapsed
        watch.stop()  # no-op
        assert watch.elapsed == elapsed

    def test_context_manager(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.005
        assert not watch.running

    def test_context_manager_reentrant(self):
        """Entering an already-running stopwatch is harmless; the outer
        exit is what finally stops it."""
        watch = Stopwatch()
        watch.start()
        with watch:
            time.sleep(0.01)
        assert not watch.running
        assert watch.elapsed >= 0.005

    def test_context_manager_accumulates_across_uses(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        first = watch.elapsed
        with watch:
            time.sleep(0.01)
        assert watch.elapsed > first

    def test_context_manager_stops_on_exception(self):
        watch = Stopwatch()
        try:
            with watch:
                time.sleep(0.005)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not watch.running
        assert watch.elapsed >= 0.003


class TestJobMetrics:
    def test_other_is_residual(self):
        metrics = JobMetrics(total_s=10.0, acquisition_s=6.0,
                             application_s=3.0)
        assert metrics.other_s == 1.0

    def test_other_never_negative(self):
        metrics = JobMetrics(total_s=1.0, acquisition_s=2.0)
        assert metrics.other_s == 0.0

    def test_acquisition_rate(self):
        metrics = JobMetrics(acquisition_s=2.0,
                             bytes_received=4 * 1024 * 1024)
        assert metrics.acquisition_rate_mb_s == 2.0

    def test_rate_with_zero_time(self):
        assert JobMetrics().acquisition_rate_mb_s == 0.0

    def test_as_row_keys(self):
        row = JobMetrics(job_id="x", total_s=1.23456).as_row()
        assert row["total_s"] == 1.2346  # rounded
        assert "credit_waits" in row

    def test_as_row_covers_every_counter(self):
        metrics = JobMetrics(
            job_id="j", total_s=3.0, acquisition_s=1.0, application_s=1.5,
            chunks_received=4, bytes_received=100, records_converted=50,
            bytes_staged=90, files_written=2, bytes_uploaded=95,
            copy_rows=50, rows_inserted=48, et_errors=1, uv_errors=1,
            dml_statements=3, chunk_retries=2, credit_waits=5,
            credit_wait_s=0.12345)
        row = metrics.as_row()
        assert row["bytes_staged"] == 90
        assert row["files_written"] == 2
        assert row["bytes_uploaded"] == 95
        assert row["copy_rows"] == 50
        assert row["dml_statements"] == 3
        assert row["chunk_retries"] == 2
        assert row["credit_wait_s"] == 0.1235
        assert row["other_s"] == 0.5

    def test_as_row_identity_and_overlap_fields(self):
        metrics = JobMetrics(job_id="j9", trace_id="00af", pool="etl")
        row = metrics.as_row()
        # Identity columns lead the row so bench tables and flight
        # bundles key on them first.
        assert list(row)[:3] == ["job_id", "trace_id", "pool"]
        assert row["trace_id"] == "00af"
        assert row["pool"] == "etl"

    def test_as_row_defaults_blank_identity(self):
        row = JobMetrics(job_id="j").as_row()
        assert row["trace_id"] == ""
        assert row["pool"] == ""
