"""Tests for the scalar expression evaluator."""

import datetime
from decimal import Decimal

import pytest

from repro.cdw.expressions import RowContext, evaluate, is_true
from repro.errors import ExpressionError
from repro.sqlxc.parser import parse_expression


def ev(sql: str, dialect: str = "cdw", **columns):
    ctx = RowContext()
    if columns:
        names = list(columns)
        ctx.bind("t", names, tuple(columns[c] for c in names))
    return evaluate(parse_expression(sql, dialect), ctx)


class TestArithmetic:
    def test_basics(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("10 - 4") == 6
        assert ev("2 * 2.5") == Decimal("5.0")

    def test_integer_division_truncates(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3  # truncation toward zero

    def test_float_division(self):
        assert ev("7.0 / 2") == Decimal("3.5")

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            ev("1 / 0")

    def test_modulo(self):
        assert ev("7 % 3") == 1

    def test_null_propagates(self):
        assert ev("1 + NULL") is None
        assert ev("NULL * 2") is None

    def test_unary_minus(self):
        assert ev("-(2 + 3)") == -5

    def test_non_numeric_operand_raises(self):
        with pytest.raises(ExpressionError):
            ev("'a' + 1")


class TestComparisons:
    def test_basic(self):
        assert ev("1 < 2") is True
        assert ev("2 <= 2") is True
        assert ev("3 <> 4") is True
        assert ev("3 = 3") is True

    def test_null_is_unknown(self):
        assert ev("1 = NULL") is None
        assert ev("NULL <> NULL") is None

    def test_char_padding_ignored(self):
        assert ev("'ab  ' = 'ab'") is True

    def test_decimal_vs_float(self):
        assert ev("1.5 = a", a=1.5) is True

    def test_date_vs_timestamp(self):
        ctx_value = datetime.datetime(2020, 1, 2, 0, 0)
        assert ev("d = DATE '2020-01-02'", d=ctx_value) is True

    def test_incomparable_types_raise(self):
        with pytest.raises(ExpressionError):
            ev("a < 1", a="text")


class TestLogic:
    def test_three_valued_and(self):
        assert ev("TRUE AND NULL") is None
        assert ev("FALSE AND NULL") is False
        assert ev("NULL AND FALSE") is False

    def test_three_valued_or(self):
        assert ev("TRUE OR NULL") is True
        assert ev("NULL OR FALSE") is None

    def test_not_null(self):
        assert ev("NOT NULL") is None

    def test_is_true_filter(self):
        assert is_true(True)
        assert not is_true(None)
        assert not is_true(False)


class TestPredicates:
    def test_is_null(self):
        assert ev("a IS NULL", a=None) is True
        assert ev("a IS NOT NULL", a=None) is False

    def test_between(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("5 NOT BETWEEN 1 AND 10") is False
        assert ev("NULL BETWEEN 1 AND 2") is None

    def test_like(self):
        assert ev("'hello' LIKE 'h%'") is True
        assert ev("'hello' LIKE 'h_llo'") is True
        assert ev("'hello' NOT LIKE 'x%'") is True
        assert ev("'h.x' LIKE 'h.x'") is True
        assert ev("'hax' LIKE 'h.x'") is False  # dot is literal

    def test_in_list(self):
        assert ev("2 IN (1, 2, 3)") is True
        assert ev("9 IN (1, 2, 3)") is False
        assert ev("9 IN (1, NULL)") is None  # unknown, not false
        assert ev("2 NOT IN (1, 3)") is True


class TestStrings:
    def test_concat(self):
        assert ev("'a' || 'b' || 'c'") == "abc"
        assert ev("'a' || NULL") is None

    def test_concat_coerces(self):
        assert ev("'v=' || 5") == "v=5"

    def test_trim_family(self):
        assert ev("TRIM('  x  ')") == "x"
        assert ev("LTRIM('  x')") == "x"
        assert ev("RTRIM('x  ')") == "x"

    def test_case_functions(self):
        assert ev("UPPER('ab')") == "AB"
        assert ev("LOWER('AB')") == "ab"

    def test_length(self):
        assert ev("LENGTH('abc')") == 3

    def test_substr(self):
        assert ev("SUBSTR('hello', 2, 3)") == "ell"
        assert ev("SUBSTR('hello', 2)") == "ello"
        assert ev("SUBSTRING('hello' FROM 2 FOR 3)") == "ell"

    def test_strpos(self):
        assert ev("STRPOS('hello', 'll')") == 3
        assert ev("STRPOS('hello', 'z')") == 0


class TestNullFunctions:
    def test_coalesce(self):
        assert ev("COALESCE(NULL, NULL, 3)") == 3
        assert ev("COALESCE(NULL, NULL)") is None

    def test_nullif(self):
        assert ev("NULLIF(1, 1)") is None
        assert ev("NULLIF(1, 2)") == 1

    def test_zeroifnull_legacy(self):
        assert ev("ZEROIFNULL(a)", dialect="legacy", a=None) == 0

    def test_nullifzero_legacy(self):
        assert ev("NULLIFZERO(a)", dialect="legacy", a=0) is None


class TestConversions:
    def test_cast_basic(self):
        assert ev("CAST('42' AS INT)") == 42

    def test_cast_null(self):
        assert ev("CAST(NULL AS INT)") is None

    def test_format_cast_legacy(self):
        value = ev("CAST('12/31/1999' AS DATE FORMAT 'MM/DD/YYYY')",
                   dialect="legacy")
        assert value == datetime.date(1999, 12, 31)

    def test_to_date_with_format(self):
        assert ev("TO_DATE('31.12.1999', 'DD.MM.YYYY')") == \
            datetime.date(1999, 12, 31)

    def test_to_date_default_format(self):
        assert ev("TO_DATE('2020-01-02')") == datetime.date(2020, 1, 2)

    def test_cast_failure_attributes_column(self):
        with pytest.raises(ExpressionError) as info:
            ev("CAST(d AS DATE)", d="junk")
        assert info.value.field == "d"

    def test_to_date_failure_attributes_column(self):
        with pytest.raises(ExpressionError) as info:
            ev("TO_DATE(d, 'YYYY-MM-DD')", d="junk")
        assert info.value.field == "d"

    @pytest.mark.parametrize("strict,tried,bad,good,want", [
        ("CAST(d AS INT)", "TRY_CAST(d AS INT)", "1x2", " 7", 7),
        ("CAST(d AS VARCHAR(3))", "TRY_CAST(d AS VARCHAR(3))", "abcd",
         "abc", "abc"),
        ("TO_DATE(d, 'YYYY-MM-DD')", "TRY_TO_DATE(d, 'YYYY-MM-DD')",
         "2020-13-45", "2020-01-02", datetime.date(2020, 1, 2)),
        ("TO_TIMESTAMP(d)", "TRY_TO_TIMESTAMP(d)", "junk",
         "2020-01-02 03:04:05", datetime.datetime(2020, 1, 2, 3, 4, 5)),
    ])
    def test_try_forms_are_null_where_the_strict_form_raises(
            self, strict, tried, bad, good, want):
        with pytest.raises(ExpressionError):
            ev(strict, d=bad)
        assert ev(tried, d=bad) is None
        assert ev(tried, d=good) == ev(strict, d=good) == want
        assert ev(tried, d=None) is None


class TestCase:
    def test_searched(self):
        assert ev("CASE WHEN a > 1 THEN 'big' ELSE 'small' END", a=5) \
            == "big"

    def test_no_match_no_else(self):
        assert ev("CASE WHEN a > 1 THEN 'big' END", a=0) is None


class TestContext:
    def test_qualified_resolution(self):
        ctx = RowContext()
        ctx.bind("a", ["X"], (1,))
        ctx.bind("b", ["X"], (2,))
        assert evaluate(parse_expression("a.X"), ctx) == 1
        assert evaluate(parse_expression("b.X"), ctx) == 2

    def test_ambiguous_unqualified_raises(self):
        ctx = RowContext()
        ctx.bind("a", ["X"], (1,))
        ctx.bind("b", ["X"], (2,))
        with pytest.raises(ExpressionError):
            evaluate(parse_expression("X"), ctx)

    def test_parent_lookup(self):
        outer = RowContext()
        outer.bind("o", ["Y"], (9,))
        inner = RowContext(parent=outer)
        inner.bind("i", ["X"], (1,))
        assert evaluate(parse_expression("Y"), inner) == 9

    def test_unknown_column_raises(self):
        with pytest.raises(ExpressionError):
            ev("nope")

    def test_unknown_function_raises(self):
        with pytest.raises(ExpressionError):
            ev("FROBNICATE(1)")

    def test_unbound_host_param_raises(self):
        with pytest.raises(ExpressionError):
            ev(":X", dialect="legacy")
