"""Result-layout inference tests (export/result-set typing)."""

import datetime
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.cdw.columns import TextColumn, TextSlice
from repro.legacy.infer import infer_column_layout, infer_legacy_type


class TestInferLegacyType:
    def test_all_null_column(self):
        assert infer_legacy_type([None, None]).base == "VARCHAR"

    def test_integers(self):
        assert infer_legacy_type([1, None, 3]).base == "BIGINT"

    def test_floats_absorb_ints(self):
        assert infer_legacy_type([1, 2.5]).base == "FLOAT"

    def test_decimals(self):
        assert infer_legacy_type([Decimal("1.5"), 2]).base == "DECIMAL"

    def test_dates(self):
        assert infer_legacy_type(
            [datetime.date(2020, 1, 1), None]).base == "DATE"

    def test_timestamps(self):
        assert infer_legacy_type(
            [datetime.datetime(2020, 1, 1, 2)]).base == "TIMESTAMP"

    def test_date_and_timestamp_mix_is_text(self):
        inferred = infer_legacy_type(
            [datetime.date(2020, 1, 1),
             datetime.datetime(2020, 1, 1, 2)])
        assert inferred.base == "VARCHAR"

    def test_strings_sized_to_longest(self):
        inferred = infer_legacy_type(["ab", "abcd", None])
        assert (inferred.base, inferred.length) == ("VARCHAR", 4)


def _text(values) -> TextSlice:
    column = TextColumn()
    column.append_many(values)
    return TextSlice(column, 0, len(values))


class TestInferResultLayout:
    def test_per_column_types(self):
        layout = infer_column_layout(
            ["N", "S", "D"],
            [[1, 2], ["x", "yy"], [datetime.date(2020, 1, 1), None]])
        assert [f.type.base for f in layout.fields] == \
            ["BIGINT", "VARCHAR", "DATE"]
        assert layout.field_names == ["N", "S", "D"]

    def test_empty_result(self):
        layout = infer_column_layout(["A"], [[]])
        assert layout.fields[0].type.base == "VARCHAR"

    def test_text_column_width_from_offsets(self):
        layout = infer_column_layout(["S"], [_text(["ab", None, "abcd"])])
        assert layout.fields[0].type.render() == "VARCHAR(4)"

    def test_text_column_width_counts_characters(self):
        layout = infer_column_layout(["S"], [_text(["ünï", "ab"])])
        assert layout.fields[0].type.render() == "VARCHAR(3)"

    def test_all_null_and_empty_text_columns_are_one_wide(self):
        layout = infer_column_layout(
            ["N", "E", "Z"], [_text([None, None]), _text(["", None]),
                              _text([])])
        assert [f.type.render() for f in layout.fields] == \
            ["VARCHAR(1)"] * 3


#: values of one byte width each: ASCII, and equal bytes in unequal
#: characters (``é`` is two bytes, like ``ab``).
_UNIFORM = st.integers(0, 4).flatmap(lambda width: st.lists(
    st.one_of(st.none(), st.text(st.sampled_from("ab|"), min_size=width,
                                 max_size=width)), max_size=30))
_MIXED_BYTES = st.lists(st.one_of(st.none(), st.sampled_from(
    ["é", "ab", "☃", "abc", "éé", "abcd"])), max_size=30)
_ANY = st.lists(st.one_of(st.none(), st.text(
    st.sampled_from("ab\n|é☃\U0001F600"), max_size=6)), max_size=30)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(_UNIFORM, _MIXED_BYTES, _ANY), data=st.data())
def test_text_layout_is_the_longest_value_in_characters(values, data):
    """A text column's VARCHAR width, from its buffers, equals the
    brute-force maximum of its values' characters (1 when there is
    none), on the whole column, a slice of it and a sub-slice of that:
    uniform and uneven byte widths, NULLs, empty and non-ASCII values."""
    column = TextColumn()
    column.append_many(values)
    lo = data.draw(st.integers(0, len(values)))
    hi = data.draw(st.integers(lo, len(values)))
    start = data.draw(st.integers(0, hi - lo))
    stop = data.draw(st.integers(start, hi - lo))
    text = TextSlice(column, lo, hi)
    for part, want in ((TextSlice(column, 0, len(values)), values),
                       (text, values[lo:hi]),
                       (text.sub(start, stop),
                        values[lo + start:lo + stop])):
        longest = max([len(v) for v in want if v is not None], default=0)
        layout = infer_column_layout(["S"], [part])
        assert layout.fields[0].type.render() == \
            f"VARCHAR({max(longest, 1)})"
