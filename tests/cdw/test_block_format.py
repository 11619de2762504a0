"""Staging blocks round-trip through ``COPY … FORMAT block``.

Text columns framed by byte lengths (:mod:`repro.cdw.stagefile`) go
through :func:`stagefile.encode_block` into staging files, in any order
and any grouping, and the COPY must land exactly the encoded values in
``__SEQ`` order, with the zone map armed on ``__SEQ`` when the runs
ascend.  Corrupt blocks are covered beside the converter's in
``tests/core/test_block_staging.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdw import stagefile
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.errors import DataFormatError

#: NULLs, empty strings, the CSV NULL marker and text of ASCII, two-,
#: three- and four-byte characters.
TEXT = st.none() | st.sampled_from(["", "\\N"]) | st.text(
    alphabet=st.sampled_from(list("ab |,\\\n") + ["é", "€", "😀"]),
    max_size=5)


def copy(files: "list[bytes]", width: int, names=None):
    """COPY ``files`` into a fresh ``S`` of ``width`` text columns and
    ``__SEQ``; returns the engine and the COPY's result."""
    store = CloudStore()
    store.create_container("stage")
    for index, data in enumerate(files):
        name = names[index] if names else index
        store.put_blob("stage", f"j/part-{name:02d}.blk", data)
    engine = CdwEngine(store=store)
    columns = ", ".join(f"C{i} NVARCHAR" for i in range(width))
    engine.execute(f"CREATE TABLE S ({columns}, __SEQ BIGINT)")
    result = engine.execute("COPY INTO S FROM 'store://stage/j/' FORMAT block")
    return engine, result


@st.composite
def staged(draw):
    """``(width, blocks, files, names)``: blocks of rows with disjoint,
    ascending ``__SEQ`` ranges (one per chunk, gaps allowed), grouped
    0–3 to a file in a drawn order, the files named in a drawn order."""
    width = draw(st.integers(1, 3))
    blocks = []
    for chunk in range(draw(st.integers(0, 6))):
        seqs = draw(st.lists(st.integers(chunk * 100, chunk * 100 + 20),
                             unique=True, max_size=6).map(sorted))
        rows = [(*(draw(TEXT) for _ in range(width)), seq) for seq in seqs]
        blocks.append(rows)
    order = draw(st.permutations(range(len(blocks))))
    files, at = [], 0
    while at < len(order) or not files:
        take = draw(st.integers(0 if len(files) < 4 else 1, 3))
        files.append([blocks[i] for i in order[at:at + take]])
        at += take
    names = draw(st.permutations(range(len(files))))
    return width, blocks, files, names


def encoded(rows, width: int) -> bytes:
    return stagefile.encode_block(
        [row[-1] for row in rows],
        [stagefile.values_column([row[i] for row in rows])
         for i in range(width)])


@settings(max_examples=200, deadline=None)
@given(staged())
def test_blocks_land_their_values_in_seq_order(case):
    width, blocks, files, names = case
    datas = [b"".join(encoded(rows, width) for rows in blocks_of_file)
             for blocks_of_file in files]
    engine, result = copy(datas, width, names)
    expected = sorted((row for rows in blocks for row in rows),
                      key=lambda row: row[-1])
    table = engine.catalog.get("S")
    assert result.rows_inserted == len(expected)
    assert list(table.rows) == expected
    assert table.sorted_by == ("__SEQ" if expected else None)


def test_runs_that_do_not_ascend_leave_the_zone_map_unarmed():
    """Blocks whose ``__SEQ`` runs interleave land in the order of
    their first ``__SEQ`` and arm nothing; arming sorts them."""
    early = encoded([("a", 1), ("c", 5)], 1)
    late = encoded([("b", 3)], 1)
    engine, _ = copy([late, early], 1)
    table = engine.catalog.get("S")
    assert list(table.rows) == [("a", 1), ("c", 5), ("b", 3)]
    assert table.sorted_by is None
    table.set_sorted("__SEQ")
    assert list(table.rows) == [("a", 1), ("b", 3), ("c", 5)]


def test_a_copy_into_a_non_empty_table_arms_nothing():
    engine, _ = copy([encoded([("a", 1)], 1)], 1)
    table = engine.catalog.get("S")
    table.sorted_by = None
    engine.execute("COPY INTO S FROM 'store://stage/j/' FORMAT block")
    assert list(table.rows) == [("a", 1), ("a", 1)]
    assert table.sorted_by is None


def test_runs_must_each_hold_a_value():
    """Runs ``[0, 5)`` and ``[5, 4)`` hold the row count between them,
    but a run cannot end before it starts."""
    block = bytearray(encoded([("a", 0), ("b", 1), ("c", 2), ("d", 7)], 1))
    for at, number in ((24, 5), (32, 5), (40, 4)):
        block[at:at + 8] = number.to_bytes(8, "little")
    with pytest.raises(DataFormatError, match="__SEQ runs"):
        stagefile.decode_blocks(bytes(block))


def test_block_layout():
    """The bytes of a one-row, one-column block, field by field."""
    data = encoded([("é", 7)], 1)
    assert data == b"".join([
        b"HQB2", (1).to_bytes(4, "little"), (1).to_bytes(4, "little"),
        (1).to_bytes(4, "little"),                       # one run
        (7).to_bytes(8, "little"), (8).to_bytes(8, "little"),
        (2).to_bytes(8, "little"),                       # blob size
        b"\x01", (2).to_bytes(8, "little"), "é".encode("utf-8")])
