"""Checkpoint-journal compaction: O(state), crash-safe, replay-equal.

``compact()`` rewrites the journal as consolidated state via a
rewrite-and-rename, so a long-running feed's watermark journal stops
growing with history.  The rewrite must preserve every replayable
fact, survive appends afterwards, and keep honoring the torn-tail
rule (a crash mid-append never makes the journal unreadable).
"""

import json
import os

from repro.resilience.checkpoint import CheckpointJournal


def _state(journal):
    return (journal.acked, dict(journal.staged), journal.uploaded,
            journal.copy_rows, journal.dq_routed,
            journal.stream_committed_seq, journal.stream_cursor,
            journal.stream_rows, list(journal.stream_drift))


def _fill(journal):
    for seq in range(6):
        journal.record_ack(seq)
    journal.record_staged("f0", path="/tmp/f0", size=100, records=6,
                          chunks=[{"seq": 0, "records": 6,
                                   "errors": []}])
    journal.record_uploaded("f0")
    journal.record_copy(6)
    journal.record_dq_route([2, 4])
    journal.record_stream_drift(
        3, [{"kind": "added", "column": "C", "new_type": "INT"}],
        layout={"name": "l", "fields": []})
    for seq in range(40):
        journal.record_stream_commit(seq, cursor=f"off:{seq}", rows=10)


def test_compaction_shrinks_and_preserves_replay_state(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = CheckpointJournal(path)
    _fill(journal)
    before_state = _state(journal)
    before_size = os.path.getsize(path)

    saved = journal.compact()
    assert saved > 0
    assert os.path.getsize(path) == before_size - saved
    assert _state(journal) == before_state  # in-memory view unchanged

    # the 40 per-batch commits collapsed into one total_rows record
    lines = [json.loads(line) for line in
             open(path, encoding="utf-8") if line.strip()]
    commits = [r for r in lines if r["t"] == "stream_commit"]
    assert len(commits) == 1
    assert commits[0]["seq"] == 39
    assert commits[0]["total_rows"] == 400
    assert commits[0]["cursor"] == "off:39"
    journal.close()

    # a cold replay of the compacted journal reproduces the state
    replayed = CheckpointJournal(path)
    assert _state(replayed) == before_state
    replayed.close()


def test_journal_stays_appendable_after_compaction(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = CheckpointJournal(path)
    _fill(journal)
    journal.compact()
    journal.record_stream_commit(40, cursor="off:40", rows=10)
    journal.close()

    replayed = CheckpointJournal(path)
    assert replayed.stream_committed_seq == 40
    assert replayed.stream_rows == 410
    assert replayed.stream_cursor == "off:40"
    replayed.close()


def test_torn_tail_rules_survive_compaction(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = CheckpointJournal(path)
    _fill(journal)
    journal.compact()
    journal.close()

    # a crash mid-append leaves an unterminated JSON fragment
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t":"stream_commit","seq":99,"cur')

    replayed = CheckpointJournal(path)
    # the torn record is dropped, the compacted state is intact
    assert replayed.stream_committed_seq == 39
    assert replayed.stream_rows == 400
    # and the truncated tail was removed so appends start clean
    replayed.record_stream_commit(40, cursor="off:40", rows=10)
    replayed.close()
    again = CheckpointJournal(path)
    assert again.stream_committed_seq == 40
    again.close()
