"""Infer legacy wire types for query-result columns.

Export jobs and ad-hoc result sets travel in legacy record encodings,
which need a :class:`~repro.legacy.types.Layout`.  The engines do not
track result types, so both the reference server and Hyper-Q's export path
derive a layout from the result's columns themselves
(:meth:`~repro.cdw.engine.CdwResult.block`): a text column's width from
its offsets, any other column from its values' types.
"""

from __future__ import annotations

from decimal import Decimal

from repro import values
from repro.cdw.columns import TextSlice
from repro.legacy.types import FieldDef, Layout, LegacyType

__all__ = ["infer_legacy_type", "infer_column_layout"]

_NONE = type(None)


def infer_legacy_type(column_values: list) -> LegacyType:
    """The narrowest legacy type that can carry every value in a column."""
    kinds = set(map(type, column_values))
    kinds.discard(_NONE)
    if not kinds:
        return LegacyType("VARCHAR", 1)
    if kinds <= {bool, int}:
        return LegacyType("BIGINT")
    if kinds <= {bool, int, float}:
        return LegacyType("FLOAT")
    if kinds <= {bool, int, Decimal}:
        return LegacyType("DECIMAL")
    if kinds == {values.Timestamp}:
        return LegacyType("TIMESTAMP")
    # datetime is a subclass of date; a pure-date column has no datetimes.
    if all(issubclass(kind, values.Date)
           and not issubclass(kind, values.Timestamp) for kind in kinds):
        return LegacyType("DATE")
    present = [v for v in column_values if v is not None]
    if kinds == {str}:
        return LegacyType("VARCHAR", max(max(map(len, present)), 1))
    # Mixed column: fall back to text wide enough for every rendering.
    return LegacyType("VARCHAR",
                      max(max(len(str(v)) for v in present), 1))


def infer_column_layout(names: list[str], columns: list) -> Layout:
    """A layout for a result set from its column names and columns.

    A column is a :class:`~repro.cdw.columns.TextSlice` (a VARCHAR as
    wide as its longest value, from the offsets when the values are
    ASCII) or a list of values (:func:`infer_legacy_type`).
    """
    fields = []
    for name, column in zip(names, columns):
        if type(column) is TextSlice:
            ftype = LegacyType("VARCHAR", max(column.max_chars(), 1))
        else:
            ftype = infer_legacy_type(column)
        fields.append(FieldDef(name, ftype))
    return Layout("__resultset__", fields)
