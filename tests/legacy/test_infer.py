"""Result-layout inference tests (export/result-set typing)."""

import datetime
from decimal import Decimal

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
