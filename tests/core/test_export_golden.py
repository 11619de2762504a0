"""Golden export files: fixed bytes both servers must keep producing.

``test_export_parity.py`` diffs Hyper-Q against ``LegacyServer``; a drift
the two servers share (both encode export bodies in the job's format)
would pass it.  These literals were captured from the client-side
BINARY decode + re-encode export path, so they pin what a legacy export
file looks like independently of either server:

- a mixed int/float column (``CASE``, ``COALESCE``) is FLOAT and every
  value in it renders as a float (``4.0``, not ``4``);
- an int + DECIMAL mix is DECIMAL and keeps each value's own text;
- COUNT/SUM/AVG/MAX/MIN results;
- VARTEXT with ``|``, ``,`` and tab delimiters over values holding the
  delimiter, a backslash and a newline, and NULLs everywhere;
- BINARY for the same results.

Every combination of backend, session count and chunk size must give
the same file.
"""

import pytest

from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.legacy.server import LegacyServer

DDL = ("create table GX (K integer, I integer, F float, D decimal(10,2), "
       "V varchar(30), DT date)")

INSERTS = [
    "insert into GX values (1, 4, 2.5, 1.25, 'a|b', DATE '2020-01-02')",
    "insert into GX values (2, NULL, 0.5, NULL, 'back\\slash', NULL)",
    "insert into GX values (3, -7, NULL, 3.50, 'new\nline', "
    "DATE '1999-12-31')",
    "insert into GX values (4, 0, -1.75, 10.00, 'tab\there, comma', "
    "DATE '2024-02-29')",
    "insert into GX values (5, 12, NULL, NULL, NULL, NULL)",
]

QUERIES = {
    "mixed": "sel K, case when K < 3 then I else F end as M, "
             "coalesce(F, I) as C, coalesce(D, I) as ID from GX order by K",
    "aggregates": "sel count(*) as N, sum(I) as S, avg(I) as A, "
                  "max(F) as MX, min(D) as MN from GX",
    "text": "sel K, V, DT from GX order by K",
}

FORMATS = {
    "pipe": FormatSpec("vartext", "|"),
    "comma": FormatSpec("vartext", ","),
    "tab": FormatSpec("vartext", "\t"),
    "binary": FormatSpec("binary"),
}

#: ``rows_exported`` and ``columns`` per query.
SHAPE = {
    "mixed": (5, [("K", "BIGINT"), ("M", "FLOAT"), ("C", "FLOAT"),
                  ("ID", "DECIMAL")]),
    "aggregates": (1, [("N", "BIGINT"), ("S", "BIGINT"), ("A", "FLOAT"),
                       ("MX", "FLOAT"), ("MN", "DECIMAL")]),
    "text": (5, [("K", "BIGINT"), ("V", "VARCHAR(15)"), ("DT", "DATE")]),
}

#: ``data`` per (query, format).
DATA = {
    ("aggregates", "binary"):
        (b"'\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x00"
         b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02@\x00\x00\x00\x00\x00"
         b"\x00\x04@\x04\x001.25"),
    ("aggregates", "comma"): b"5,9,2.25,2.5,1.25\n",
    ("aggregates", "pipe"): b"5|9|2.25|2.5|1.25\n",
    ("aggregates", "tab"): b"5\t9\t2.25\t2.5\t1.25\n",
    ("mixed", "binary"):
        (b"\x1f\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
         b"\x00\x10@\x00\x00\x00\x00\x00\x00\x04@\x04\x001.25\x11\x00\n"
         b"\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0?"
         b"\x17\x00\x02\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
         b"\x00\x1c\xc0\x04\x003.50 \x00\x00\x04\x00\x00\x00"
         b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xfc\xbf\x00\x00\x00\x00"
         b"\x00\x00\xfc\xbf\x05\x0010.00\x15\x00\x02\x05\x00"
         b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00(@\x02\x0012"),
    ("mixed", "comma"):
        (b"1,4.0,2.5,1.25\n2,,0.5,\n3,,-7.0,3.50\n4,-1.75,-1.75,10.00\n"
         b"5,,12.0,12\n"),
    ("mixed", "pipe"):
        (b"1|4.0|2.5|1.25\n2||0.5|\n3||-7.0|3.50\n4|-1.75|-1.75|10.00\n"
         b"5||12.0|12\n"),
    ("mixed", "tab"):
        (b"1\t4.0\t2.5\t1.25\n2\t\t0.5\t\n3\t\t-7.0\t3.50\n"
         b"4\t-1.75\t-1.75\t10.00\n5\t\t12.0\t12\n"),
    ("text", "binary"):
        (b"\x12\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00a|b"
         b"\xe6O\x12\x00\x15\x00\x04\x02\x00\x00\x00\x00\x00\x00\x00\n"
         b"\x00back\\slash\x17\x00\x00\x03\x00\x00\x00\x00\x00"
         b"\x00\x00\x08\x00new\nline\xff\x1f\x0f\x00\x1e\x00\x00\x04"
         b"\x00\x00\x00\x00\x00\x00\x00\x0f\x00tab\there, comma"
         b"\xa5\xec\x12\x00\t\x00\x06\x05\x00\x00\x00\x00\x00\x00\x00"),
    ("text", "comma"):
        (b"1,a|b,2020-01-02\n2,back\\\\slash,\n3,new\\nline,1999-12-31\n"
         b"4,tab\there\\, comma,2024-02-29\n5,,\n"),
    ("text", "pipe"):
        (b"1|a\\|b|2020-01-02\n2|back\\\\slash|\n3|new\\nline|1999-12-31\n"
         b"4|tab\there, comma|2024-02-29\n5||\n"),
    ("text", "tab"):
        (b"1\ta|b\t2020-01-02\n2\tback\\\\slash\t\n3\tnew\\nline\t"
         b"1999-12-31\n4\ttab\\\there, comma\t2024-02-29\n5\t\t\n"),
}


def _populate(connect) -> None:
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    client.execute_sql(DDL)
    for statement in INSERTS:
        client.execute_sql(statement)
    client.logoff()


@pytest.fixture(scope="module")
def backends():
    legacy = LegacyServer().start()
    _populate(legacy.connect)
    stack = build_stack(config=HyperQConfig(
        converters=1, filewriters=1, credits=4))
    _populate(stack.node.connect)
    yield {"legacy": legacy, "threaded": stack}
    legacy.stop()
    stack.close()


def _set_chunk_rows(backend, chunk_rows: int):
    if isinstance(backend, LegacyServer):
        backend.chunk_rows = chunk_rows
        return backend.connect
    backend.node.config.export_chunk_rows = chunk_rows
    return backend.node.connect


@pytest.mark.parametrize("chunk_rows", [1, 1000])
@pytest.mark.parametrize("sessions", [1, 3])
@pytest.mark.parametrize("backend", ["legacy", "threaded"])
def test_export_matches_golden_file(backends, backend, sessions,
                                    chunk_rows):
    connect = _set_chunk_rows(backends[backend], chunk_rows)
    client = LegacyEtlClient(connect, timeout=30)
    client.logon("h", "u", "p")
    try:
        for (query, fmt), expected in DATA.items():
            result = client.run_export(ExportJobSpec(
                QUERIES[query], format_spec=FORMATS[fmt],
                sessions=sessions))
            assert result.data == expected, (query, fmt)
            assert (result.rows_exported, result.columns) == \
                SHAPE[query], (query, fmt)
    finally:
        client.logoff()
