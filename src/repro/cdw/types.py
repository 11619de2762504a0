"""The CDW type system and value coercion.

Coercion failures raise :class:`~repro.errors.ExpressionError`; inside a
set-oriented DML statement the engine converts them into a statement-level
:class:`~repro.errors.BulkExecutionError` — one bad value aborts the whole
statement, which is what forces Hyper-Q's adaptive error handling.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from repro import values
from repro.errors import ExpressionError, TypeError_
from repro.legacy.types import LegacyType
from repro.sqlxc import nodes as n
from repro.sqlxc.rewrites import TYPE_MAP

__all__ = ["CdwType", "cdw_type_from_node", "cdw_type_from_legacy"]

_KNOWN_BASES = {
    "NVARCHAR", "VARCHAR", "CHAR", "SMALLINT", "INT", "BIGINT",
    "DECIMAL", "DOUBLE", "DATE", "TIMESTAMP", "BOOLEAN",
}

_INT_RANGES = {
    "SMALLINT": (-2 ** 15, 2 ** 15 - 1),
    "INT": (-2 ** 31, 2 ** 31 - 1),
    "BIGINT": (-2 ** 63, 2 ** 63 - 1),
}

#: the value types a DATE / TIMESTAMP column takes as they are.
_DATE_TYPES = {values.Date, type(None)}
_TIMESTAMP_TYPES = {values.Timestamp, type(None)}


@dataclass(frozen=True)
class CdwType:
    """A CDW column type, e.g. ``NVARCHAR(50)`` or ``DECIMAL(10,2)``."""

    base: str
    length: int | None = None
    scale: int | None = None

    def __post_init__(self):
        """Validate the base type name."""
        if self.base not in _KNOWN_BASES:
            raise TypeError_(f"unknown CDW type {self.base!r}")

    def render(self) -> str:
        """SQL rendering of the type, e.g. ``NVARCHAR(10)``."""
        if self.base == "DECIMAL" and self.length is not None:
            return f"DECIMAL({self.length},{self.scale or 0})"
        if self.length is not None and self.base in (
                "NVARCHAR", "VARCHAR", "CHAR"):
            return f"{self.base}({self.length})"
        return self.base

    @property
    def is_character(self) -> bool:
        return self.base in ("NVARCHAR", "VARCHAR", "CHAR")

    @property
    def is_integer(self) -> bool:
        return self.base in _INT_RANGES

    # -- coercion ----------------------------------------------------------

    def coerce(self, value, field: str | None = None):
        """Coerce ``value`` into this type, raising on failure."""
        if value is None:
            return None
        handler = getattr(self, f"_coerce_{self.base.lower()}", None)
        if handler is None:  # pragma: no cover - all bases have handlers
            raise TypeError_(f"no coercion for {self.base}")
        return handler(value, field)

    def coerce_many(self, column_values: list,
                    field: str | None = None) -> list:
        """Bulk :meth:`coerce` over one column's values.

        Semantically identical to mapping :meth:`coerce` per value; the
        common COPY shapes (decoded strings landing in character,
        integer, and double columns) run as tight loops without
        per-value dispatch, and anything irregular falls back to the
        per-value path so errors stay canonical.
        """
        base = self.base
        try:
            if base in ("NVARCHAR", "VARCHAR"):
                length = self.length
                if all(v is None
                       or (type(v) is str
                           and (length is None or len(v) <= length))
                       for v in column_values):
                    return list(column_values)
            elif base in _INT_RANGES:
                if base == "BIGINT" and type(column_values) is array \
                        and column_values.typecode == "q":
                    return column_values      # int64s are BIGINTs
                low, high = _INT_RANGES[base]
                out: list = []
                append = out.append
                for v in column_values:
                    if v is None:
                        append(None)
                        continue
                    if type(v) is str:
                        v = int(v.strip())
                    elif type(v) is not int:
                        raise ValueError(v)
                    if not low <= v <= high:
                        raise ValueError(v)
                    append(v)
                return out
            elif base == "DOUBLE":
                out = []
                append = out.append
                for v in column_values:
                    if v is None:
                        append(None)
                    elif type(v) is str:
                        append(float(v.strip()))
                    elif type(v) is float:
                        append(v)
                    else:
                        raise ValueError(v)
                return out
            elif base == "DATE":
                # exact type: datetime is a date subclass but must go
                # through the per-value path (it truncates to a date)
                if set(map(type, column_values)) <= _DATE_TYPES:
                    return list(column_values)
            elif base == "TIMESTAMP":
                if set(map(type, column_values)) <= _TIMESTAMP_TYPES:
                    return list(column_values)
        except ValueError:
            pass
        return [self.coerce(v, field=field) for v in column_values]

    def _char_common(self, value, field, pad: bool):
        if isinstance(value, str):
            text = value
        elif isinstance(value, (int, float, Decimal)):
            text = str(value)
        elif isinstance(value, values.Timestamp):
            text = value.isoformat(sep=" ")
        elif isinstance(value, values.Date):
            text = value.isoformat()
        else:
            raise ExpressionError(
                f"cannot coerce {type(value).__name__} to {self.render()}",
                field=field)
        if self.length is not None and len(text) > self.length:
            raise ExpressionError(
                f"value {text[:24]!r}... too long for {self.render()}"
                if len(text) > 24 else
                f"value {text!r} too long for {self.render()}",
                field=field)
        if pad and self.length is not None:
            text = text.ljust(self.length)
        return text

    def _coerce_varchar(self, value, field):
        return self._char_common(value, field, pad=False)

    def _coerce_nvarchar(self, value, field):
        return self._char_common(value, field, pad=False)

    def _coerce_char(self, value, field):
        return self._char_common(value, field, pad=True)

    def _int_common(self, value, field):
        if isinstance(value, bool):
            result = int(value)
        elif isinstance(value, int):
            result = value
        elif isinstance(value, (float, Decimal)):
            if value != int(value):
                raise ExpressionError(
                    f"non-integral value {value} for {self.base}",
                    field=field)
            result = int(value)
        elif isinstance(value, str):
            try:
                result = int(value.strip())
            except ValueError as exc:
                raise ExpressionError(
                    f"{self.base} conversion failed: {value!r}",
                    field=field) from exc
        else:
            raise ExpressionError(
                f"cannot coerce {type(value).__name__} to {self.base}",
                field=field)
        low, high = _INT_RANGES[self.base]
        if not low <= result <= high:
            raise ExpressionError(
                f"value {result} out of range for {self.base}", field=field)
        return result

    _coerce_smallint = _int_common
    _coerce_int = _int_common
    _coerce_bigint = _int_common

    def _coerce_decimal(self, value, field):
        try:
            if isinstance(value, Decimal):
                result = value
            elif isinstance(value, int):
                result = Decimal(value)
            elif isinstance(value, float):
                result = Decimal(str(value))
            elif isinstance(value, str):
                result = Decimal(value.strip())
            else:
                raise ExpressionError(
                    f"cannot coerce {type(value).__name__} to DECIMAL",
                    field=field)
        except InvalidOperation as exc:
            raise ExpressionError(
                f"DECIMAL conversion failed: {value!r}", field=field) from exc
        if self.scale is not None:
            quantum = Decimal(1).scaleb(-self.scale)
            try:
                result = result.quantize(quantum)
            except InvalidOperation as exc:
                raise ExpressionError(
                    f"DECIMAL({self.length},{self.scale}) overflow: "
                    f"{value!r}", field=field) from exc
        if self.length is not None:
            digits = result.as_tuple()
            integral = len(digits.digits) + digits.exponent
            if integral > self.length - (self.scale or 0):
                raise ExpressionError(
                    f"value {result} exceeds precision {self.length}",
                    field=field)
        return result

    def _coerce_double(self, value, field):
        if isinstance(value, (int, float, Decimal)) \
                and not isinstance(value, bool):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise ExpressionError(
                    f"DOUBLE conversion failed: {value!r}",
                    field=field) from exc
        raise ExpressionError(
            f"cannot coerce {type(value).__name__} to DOUBLE", field=field)

    def _coerce_date(self, value, field):
        if isinstance(value, values.Timestamp):
            return value.date()
        if isinstance(value, values.Date):
            return value
        if isinstance(value, str):
            return values.parse_date(value, field=field)
        raise ExpressionError(
            f"DATE conversion failed: {value!r}", field=field)

    def _coerce_timestamp(self, value, field):
        if isinstance(value, values.Timestamp):
            return value
        if isinstance(value, values.Date):
            return values.Timestamp(value.year, value.month, value.day)
        if isinstance(value, str):
            return values.parse_timestamp(value, field=field)
        raise ExpressionError(
            f"TIMESTAMP conversion failed: {value!r}", field=field)

    def _coerce_boolean(self, value, field):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1"):
                return True
            if lowered in ("false", "f", "0"):
                return False
        raise ExpressionError(
            f"BOOLEAN conversion failed: {value!r}", field=field)


def cdw_type_from_node(type_name: n.TypeName) -> CdwType:
    """Build a :class:`CdwType` from an AST type name (either dialect)."""
    base = type_name.base
    if type_name.dialect == "legacy" or base not in _KNOWN_BASES:
        mapped = TYPE_MAP.get(base)
        if mapped is None:
            raise TypeError_(f"type {base!r} has no CDW equivalent")
        base = mapped
    return CdwType(base, type_name.length, type_name.scale)


def cdw_type_from_legacy(legacy: LegacyType) -> CdwType:
    """Map a legacy type object to its CDW storage type (Section 6)."""
    mapped = TYPE_MAP.get(legacy.base)
    if mapped is None:
        raise TypeError_(f"legacy type {legacy.base!r} has no CDW mapping")
    return CdwType(mapped, legacy.length, legacy.scale)
