"""Unit tests for the checkpoint journal (replay, torn tails, resume)."""

import json
import os
import stat

from repro.resilience import CheckpointJournal


def journal_path(tmp_path):
    return os.path.join(str(tmp_path), "checkpoint.jsonl")


class TestRoundTrip:
    def test_records_replay_across_reopen(self, tmp_path):
        path = journal_path(tmp_path)
        with CheckpointJournal(path) as journal:
            journal.record_ack(0)
            journal.record_ack(2)
            journal.record_staged(
                "part-0-0.csv", path="/stage/part-0-0.csv", size=64,
                records=3, chunks=[{"seq": 0, "records": 3,
                                    "errors": []}])
            journal.record_uploaded("part-0-0.csv")
            journal.record_copy(3)
        with CheckpointJournal(path) as reopened:
            assert reopened.acked == {0, 2}
            assert reopened.uploaded == {"part-0-0.csv"}
            assert reopened.copy_rows == 3
            assert reopened.replayed == 5
            assert reopened.is_uploaded("part-0-0.csv")
            assert not reopened.is_uploaded("part-0-1.csv")

    def test_fresh_discards_previous_state(self, tmp_path):
        path = journal_path(tmp_path)
        with CheckpointJournal(path) as journal:
            journal.record_ack(1)
        with CheckpointJournal(path, fresh=True) as journal:
            assert journal.acked == set()
            assert journal.replayed == 0

    def test_unknown_record_types_are_skipped(self, tmp_path):
        path = journal_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": "future-thing"}) + "\n")
            handle.write(json.dumps({"t": "ack", "seq": 5}) + "\n")
        with CheckpointJournal(path) as journal:
            assert journal.acked == {5}


class TestTornTail:
    def test_torn_final_line_is_ignored(self, tmp_path):
        path = journal_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": "ack", "seq": 0}) + "\n")
            handle.write('{"t": "ack", "se')  # crashed mid-append
        with CheckpointJournal(path) as journal:
            assert journal.acked == {0}
            assert journal.replayed == 1
            journal.record_ack(1)  # journal stays appendable
        with CheckpointJournal(path) as reopened:
            assert reopened.acked == {0, 1}

    def test_complete_record_without_newline_is_not_applied(
            self, tmp_path):
        """Parsable but unterminated: the append never finished, and
        the load truncates it — so it must not be acted on either."""
        path = journal_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"t":"copy","rows":5}')
        for _ in range(2):  # a reopen agrees with the first open
            with CheckpointJournal(path) as journal:
                assert journal.copy_rows is None
                assert journal.replayed == 0


class TestPowerLossDurability:
    """An ``fsync=True`` journal makes its directory entry durable too."""

    @staticmethod
    def _spy(monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def noting_fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append("fsync-dir" if is_dir else "fsync-file")
            fsync(fd)

        def noting_replace(src, dst):
            replace(src, dst)
            events.append("replace")

        monkeypatch.setattr(os, "fsync", noting_fsync)
        monkeypatch.setattr(os, "replace", noting_replace)
        return events

    def test_compaction_fsyncs_directory_after_rename(
            self, tmp_path, monkeypatch):
        path = journal_path(tmp_path)
        with CheckpointJournal(path, fsync=True) as journal:
            journal.record_stream_commit(0, rows=3)
            events = self._spy(monkeypatch)
            journal.compact()
        assert events == ["fsync-file", "replace", "fsync-dir"]
        with CheckpointJournal(path) as reopened:
            assert reopened.stream_committed_seq == 0

    def test_new_durable_journal_fsyncs_its_directory(
            self, tmp_path, monkeypatch):
        events = self._spy(monkeypatch)
        CheckpointJournal(journal_path(tmp_path), fsync=True).close()
        assert events == ["fsync-dir"]

    def test_process_kill_journal_never_fsyncs_its_directory(
            self, tmp_path, monkeypatch):
        events = self._spy(monkeypatch)
        with CheckpointJournal(journal_path(tmp_path)) as journal:
            journal.record_copy(3)
            journal.compact()
        assert "fsync-dir" not in events


class TestResumeQueries:
    def _staged(self, journal, name, path, seqs):
        journal.record_staged(
            name, path=path, size=10, records=len(seqs),
            chunks=[{"seq": s, "records": 1, "errors": []} for s in seqs])

    def test_durable_vs_pending_files(self, tmp_path):
        path = journal_path(tmp_path)
        with CheckpointJournal(path) as journal:
            self._staged(journal, "a.csv", "/gone/a.csv", [0])
            self._staged(journal, "b.csv", "/gone/b.csv", [1])
            journal.record_uploaded("a.csv")
            assert journal.uploaded == {"a.csv"}
            assert [r["file"] for r in journal.pending_files()] == \
                ["b.csv"]

    def test_durable_chunks_require_upload_or_local_file(self, tmp_path):
        path = journal_path(tmp_path)
        survivor = os.path.join(str(tmp_path), "b.csv")
        with open(survivor, "wb") as handle:
            handle.write(b"x\n")
        with CheckpointJournal(path) as journal:
            self._staged(journal, "a.csv", "/gone/a.csv", [0, 1])
            self._staged(journal, "b.csv", survivor, [2])
            self._staged(journal, "c.csv", "/gone/c.csv", [3])
            journal.record_uploaded("a.csv")
            durable = journal.durable_chunks()
        # a.csv uploaded, b.csv still on disk, c.csv lost with the host.
        assert sorted(durable) == [0, 1, 2]
        assert durable[2]["records"] == 1

    def test_snapshot(self, tmp_path):
        path = journal_path(tmp_path)
        with CheckpointJournal(path) as journal:
            journal.record_ack(0)
            self._staged(journal, "a.csv", "/gone/a.csv", [0])
            snap = journal.snapshot()
        assert snap["acked_chunks"] == 1
        assert snap["staged_files"] == 1
        assert snap["uploaded_files"] == 0
        assert snap["copy_rows"] is None
