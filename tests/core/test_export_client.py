"""The export client writes the server's bodies through.

Both servers encode every EXPORT_DATA body in the job's output format
(BEGIN_EXPORT ``format``), so the client only joins the bodies in chunk
order and sums their ``records`` counts: it never decodes or encodes a
record.  A BEGIN_EXPORT without ``format`` gets BINARY bodies, and one
whose ``format`` names no record format is refused at BEGIN_EXPORT.
What a Hyper-Q export proves about its text columns (a fixed width, no
value needing an escape) holds for that export's snapshot only: after
the table changes, the next exports equal the reference server's.
"""

import threading
from types import SimpleNamespace

import pytest

from repro.bench.harness import build_stack
from repro.cdw.columns import ColumnBlock
from repro.core.config import HyperQConfig
from repro.errors import ProtocolError
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import BinaryFormat, FormatSpec, RecordFormat
from repro.legacy.infer import infer_column_layout
from repro.legacy.protocol import Message, MessageChannel, MessageKind
from repro.legacy.server import LegacyServer

ROWS = [(1, "a", 2.5), (2, None, 4.0), (3, "c|d", None), (4, "e", -1.0),
        (5, "f", 0.5)]
SELECT = "sel K, V, F from WT order by K"
VARTEXT = b"1|a|2.5\n2||4.0\n3|c\\|d|\n4|e|-1.0\n5|f|0.5\n"


def _populate(connect) -> None:
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    client.execute_sql("create table WT (K integer, V varchar(8), F float)")
    for k, v, f in ROWS:
        client.execute_sql(
            f"insert into WT values ({k}, {'NULL' if v is None else repr(v)}"
            f", {'NULL' if f is None else f})")
    client.logoff()


@pytest.fixture(scope="module", params=["legacy", "hyperq"])
def server(request):
    """One populated server of each kind, with its chunk size knob and
    its export registry."""
    if request.param == "legacy":
        legacy = LegacyServer().start()
        _populate(legacy.connect)

        def set_chunk_rows(rows):
            legacy.chunk_rows = rows

        yield SimpleNamespace(connect=legacy.connect,
                              set_chunk_rows=set_chunk_rows,
                              exports=lambda: legacy._exports)
        legacy.stop()
    else:
        stack = build_stack(config=HyperQConfig(
            converters=1, filewriters=1, credits=4))
        _populate(stack.node.connect)

        def set_chunk_rows(rows):
            stack.node.config.export_chunk_rows = rows

        yield SimpleNamespace(connect=stack.node.connect,
                              set_chunk_rows=set_chunk_rows,
                              exports=lambda: stack.node._exports)
        stack.close()


def _export(connect, spec: ExportJobSpec):
    client = LegacyEtlClient(connect, timeout=30)
    client.logon("h", "u", "p")
    try:
        return client.run_export(spec)
    finally:
        client.logoff()


def _binary_file() -> bytes:
    columns = ["K", "V", "F"]
    layout = infer_column_layout(
        columns, ColumnBlock.from_rows(ROWS, len(columns)).columns)
    return BinaryFormat(layout).encode_records(ROWS)


@pytest.mark.parametrize("fmt", ["vartext", "binary"])
def test_no_record_is_decoded_or_encoded_on_the_client(monkeypatch, fmt):
    """With the record codecs' shared decode/encode broken, a Hyper-Q
    export still arrives intact: the client never calls them, and the
    compiled codecs the cursor encodes with override them.  (The
    reference server encodes with these very methods.)"""
    expected = VARTEXT if fmt == "vartext" else _binary_file()
    stack = build_stack(config=HyperQConfig(
        converters=1, filewriters=1, credits=4, export_chunk_rows=2))
    try:
        _populate(stack.node.connect)

        def broken(self, *args):
            raise AssertionError("the client touched a record")

        monkeypatch.setattr(RecordFormat, "decode_records", broken)
        monkeypatch.setattr(RecordFormat, "encode_records", broken)
        result = _export(stack.node.connect, ExportJobSpec(
            SELECT, format_spec=FormatSpec(fmt), sessions=2))
    finally:
        stack.close()
    assert result.data == expected
    assert (result.rows_exported, result.chunks_fetched) == (5, 3)


class TestWriteThrough:
    @pytest.mark.parametrize("chunk_rows,sessions", [(1, 3), (2, 2),
                                                     (1000, 1)])
    def test_rows_exported_sums_the_records_counts(
            self, server, monkeypatch, chunk_rows, sessions):
        server.set_chunk_rows(chunk_rows)
        counts = []
        original = Message.expect

        def noting_expect(message, kind):
            if message.kind == MessageKind.EXPORT_DATA \
                    and not message.meta["eof"]:
                counts.append(message.meta["records"])
            return original(message, kind)

        monkeypatch.setattr(Message, "expect", noting_expect)
        result = _export(server.connect, ExportJobSpec(
            SELECT, sessions=sessions))
        assert result.data == VARTEXT
        assert result.rows_exported == sum(counts) == len(ROWS)
        assert result.chunks_fetched == len(counts)


class TestBeginExportFormat:
    def _begin(self, connect, meta: dict) -> tuple[Message, MessageChannel]:
        channel = MessageChannel(connect(), timeout=10)
        channel.request(Message(MessageKind.LOGON, {}), MessageKind.LOGON_OK)
        channel.send(Message(MessageKind.BEGIN_EXPORT, {
            "job_id": meta.pop("job_id"), "sql": SELECT, "sessions": 1,
            **meta}))
        return channel.recv(), channel

    def test_missing_format_gets_binary_bodies(self, server):
        server.set_chunk_rows(1000)
        begun, channel = self._begin(server.connect,
                                     {"job_id": "raw-binary"})
        assert begun.kind == MessageKind.BEGIN_EXPORT_OK
        data = channel.request(
            Message(MessageKind.EXPORT_FETCH, {
                "job_id": "raw-binary", "session_no": 0, "chunk_no": 0}),
            MessageKind.EXPORT_DATA)
        assert data.meta["records"] == len(ROWS)
        assert data.body == _binary_file()
        channel.request(
            Message(MessageKind.EXPORT_FETCH, {
                "job_id": "raw-binary", "session_no": 0, "chunk_no": 1}),
            MessageKind.EXPORT_DATA)
        channel.close()

    @pytest.mark.parametrize("wire", ["vartext:\\", "vartext:ab", "csv:,",
                                      "BINARY:|"])
    def test_unknown_format_is_a_typed_error_naming_it(self, server, wire):
        reply, channel = self._begin(server.connect, {
            "job_id": "bad-format", "format": wire})
        channel.close()
        assert reply.kind == MessageKind.ERROR
        assert reply.meta["code"] != 2666
        assert repr(wire) in reply.meta["message"]
        assert "bad-format" not in server.exports()

    def test_client_sees_the_refusal_at_begin_export(self, server):
        registered = set(server.exports())
        with pytest.raises(ProtocolError, match="unsupported record format"):
            _export(server.connect, ExportJobSpec(
                SELECT, format_spec=FormatSpec("vartext", "\n")))
        assert set(server.exports()) == registered


# -- each export reads the table as it is now ---------------------------------

CHANGES_DDL = "create table FT (K integer, ID varchar(12), V varchar(12), D date)"
CHANGES_SELECT = "sel * from FT"

#: rounds of changes after the first export, whose text columns are
#: each of one width and free of escapes: values of that width holding
#: the delimiter, a newline or a backslash (same rows, same buffer
#: sizes); then widths the first export never saw, and new rows.
CHANGE_ROUNDS = [
    ["update FT set V = 'a|b|c' where K = 3",
     "update FT set V = 'ne\nwl' where K = 5",
     "update FT set V = 'ba\\ck' where K = 6"],
    ["update FT set ID = 'R\\0000007' where K = 7",
     "update FT set V = 'vv' where K = 8",
     "insert into FT values (40, 'R000004000', 'x', DATE '2024-02-29')",
     "insert into FT values (41, NULL, '', NULL)"],
]


def _first_statements() -> list[str]:
    return [CHANGES_DDL] + [
        f"insert into FT values ({k}, 'R{k:07d}', 'vvvvv', "
        f"DATE '2020-{k % 12 + 1:02d}-{k % 28 + 1:02d}')"
        for k in range(30)]


def _run_sql(connect, statements) -> None:
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    for statement in statements:
        client.execute_sql(statement)
    client.logoff()


def _export_file(connect, fmt: str) -> tuple:
    result = _export(connect, ExportJobSpec(
        CHANGES_SELECT, format_spec=FormatSpec(fmt), sessions=2))
    return result.data, result.rows_exported, result.columns


@pytest.mark.parametrize("fmt", ["vartext", "binary"])
def test_exports_after_changes_equal_the_reference(fmt):
    """On one node, an export of text columns that are fixed-width and
    free of escapes, then — after values that break both — the next
    exports, two at once among them: each equals the reference server's
    bytes and BEGIN_EXPORT_OK columns."""
    legacy = LegacyServer(chunk_rows=7).start()
    stack = build_stack(config=HyperQConfig(
        converters=1, filewriters=1, credits=4, export_chunk_rows=7))
    try:
        for connect in (legacy.connect, stack.node.connect):
            _run_sql(connect, _first_statements())
        reference = _export_file(legacy.connect, fmt)
        assert _export_file(stack.node.connect, fmt) == reference
        for statements in CHANGE_ROUNDS:
            for connect in (legacy.connect, stack.node.connect):
                _run_sql(connect, statements)
            previous, reference = reference, _export_file(legacy.connect,
                                                          fmt)
            assert reference != previous
            assert _export_file(stack.node.connect, fmt) == reference
        assert reference[1] == 32
        results = [None, None]

        def export_into(slot: int) -> None:
            results[slot] = _export_file(stack.node.connect, fmt)

        threads = [threading.Thread(target=export_into, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [reference, reference]
    finally:
        stack.close()
        legacy.stop()
