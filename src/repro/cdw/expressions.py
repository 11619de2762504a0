"""Scalar expression evaluation over AST expressions.

Shared by the CDW engine and the reference legacy server: the two systems
agree on expression *semantics* (SQL three-valued logic, NULL propagation,
cast rules) and differ only in statement-level error handling, which lives
in their respective executors.

The evaluator understands both dialects' constructs: legacy ``CAST .. AS
DATE FORMAT 'fmt'`` is evaluated directly (the legacy server executes
un-rewritten SQL) and CDW ``TO_DATE(x, 'fmt')`` uses the same machinery —
by construction the cross-compiled query computes the same value.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from bisect import bisect_left
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain, compress, islice
from operator import eq, ge, gt, le, lt, ne, sub
from typing import Callable

from repro import values
from repro.cdw.columns import TextSlice, runs
from repro.cdw.types import cdw_type_from_node
from repro.errors import ExpressionError, SqlTranslationError
from repro.sqlxc import nodes as n

__all__ = ["RowContext", "evaluate", "is_true", "cast_node", "call_node"]

#: signature of the hook the engine provides for subquery evaluation.
SubqueryRunner = Callable[[n.Select, "RowContext"], list[tuple]]


#: column-layout -> {UPPER name: index}, memoized across rows.  Scans
#: re-bind the same table layout once per row, so uppercasing the
#: column list (and linear ``list.index`` lookups) per row dominated
#: wide scans; a shared index map makes bind+resolve O(1) dict ops.
_LAYOUT_CACHE: dict[tuple, dict[str, int]] = {}


def prepare_layout(columns: "list[str] | tuple[str, ...]") -> dict[str, int]:
    """The memoized ``{UPPER column: index}`` map for a column layout.

    Duplicate names keep their first index, matching the old
    ``list.index`` semantics.
    """
    key = tuple(columns)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = {}
        for i, c in enumerate(key):
            layout.setdefault(c.upper(), i)
        _LAYOUT_CACHE[key] = layout
    return layout


class RowContext:
    """Column bindings for one evaluation: binding name -> (columns, row).

    ``bindings`` preserves insertion order; unqualified column lookup
    searches all bindings and raises on ambiguity.
    """

    def __init__(self,
                 bindings: dict[str, tuple[list[str], tuple]] | None = None,
                 parent: "RowContext | None" = None):
        self._bindings: dict[str, tuple[dict[str, int], tuple]] = {}
        self.parent = parent
        for binding, (columns, row) in (bindings or {}).items():
            self.bind(binding, columns, row)

    def bind(self, binding: str, columns: list[str], row: tuple) -> None:
        """Add (or replace) a binding: columns and one row."""
        self._bindings[binding.upper()] = (prepare_layout(columns), row)

    def bind_prepared(self, binding_upper: str, layout: dict[str, int],
                      row: tuple) -> None:
        """Hot-path bind: caller pre-uppercased the name and prepared
        the layout via :func:`prepare_layout` once per source."""
        self._bindings[binding_upper] = (layout, row)

    def resolve(self, name: str, table: str | None = None):
        """Resolve a column reference to its value."""
        upper = name.upper()
        if table is not None:
            entry = self._bindings.get(table.upper())
            if entry is None:
                if self.parent is not None:
                    return self.parent.resolve(name, table)
                raise ExpressionError(
                    f"unknown table or alias {table!r}")
            layout, row = entry
            idx = layout.get(upper)
            if idx is None:
                raise ExpressionError(
                    f"{table}.{name} does not exist", field=name)
            return row[idx]
        matches = []
        for layout, row in self._bindings.values():
            idx = layout.get(upper)
            if idx is not None:
                matches.append(row[idx])
        if len(matches) > 1:
            raise ExpressionError(f"ambiguous column {name!r}", field=name)
        if matches:
            return matches[0]
        if self.parent is not None:
            return self.parent.resolve(name)
        raise ExpressionError(f"unknown column {name!r}", field=name)


def is_true(value) -> bool:
    """SQL WHERE semantics: only TRUE passes (NULL/unknown does not)."""
    return value is True


def evaluate(expr: n.Expr, ctx: RowContext,
             subquery_runner: SubqueryRunner | None = None):
    """Evaluate a scalar expression in a row context."""
    return _Evaluator(ctx, subquery_runner).eval(expr)


@functools.lru_cache
def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _in_literal_table(expr: n.InExpr):
    """Set-lookup fast path for homogeneous all-literal IN lists.

    Memoized on the node (one AST is evaluated once per row): without
    it a long IN list — e.g. the dq precheck's batched routing DELETE —
    degrades to a linear compare walk per row.  Returns ``(members,
    saw_null, element_type)`` or ``None`` when the generic path must
    run; strings are stored rstripped to keep CHAR-padding equality.
    """
    cached = expr.__dict__.get("_literal_table", False)
    if cached is not False:
        return cached
    table = None
    values_ = [item.value for item in expr.items
               if type(item) is n.Literal]
    if expr.items and len(values_) == len(expr.items):
        non_null = [v for v in values_ if v is not None]
        kinds = {type(v) for v in non_null}
        if kinds <= {int}:
            table = (frozenset(non_null),
                     len(non_null) < len(values_), int)
        elif kinds == {str}:
            table = (frozenset(v.rstrip() for v in non_null),
                     len(non_null) < len(values_), str)
    expr.__dict__["_literal_table"] = table
    return table


def _numeric(value, what: str):
    if isinstance(value, (int, float, Decimal)) \
            and not isinstance(value, bool):
        return value
    raise ExpressionError(f"{what} needs a numeric operand, got "
                          f"{type(value).__name__}")


def _binary_tail(op: str, left, right):
    """Arithmetic / concatenation semantics of a binary operator, given
    both operand values.  Shared verbatim by the interpreter and the
    vector compiler so the two paths cannot diverge."""
    if op == "||":
        if left is None or right is None:
            return None
        return _Evaluator._to_text(left) + _Evaluator._to_text(right)
    if left is None or right is None:
        return None
    left = _numeric(left, op)
    right = _numeric(right, op)
    if isinstance(left, Decimal) or isinstance(right, Decimal):
        left, right = Decimal(str(left)), Decimal(str(right))
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExpressionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return int(left / right)  # SQL integer division
        return left / right
    if op == "%":
        if right == 0:
            raise ExpressionError("division by zero")
        return left % right
    raise ExpressionError(f"unknown operator {op!r}")


class _Evaluator:
    #: node type -> unbound handler, filled lazily.  Saves the per-node
    #: f-string + getattr on the scan hot path.
    _dispatch: dict[type, "object"] = {}

    def __init__(self, ctx: RowContext,
                 subquery_runner: SubqueryRunner | None):
        self.ctx = ctx
        self.subquery_runner = subquery_runner

    def eval(self, expr: n.Expr):
        t = type(expr)
        method = _Evaluator._dispatch.get(t)
        if method is None:
            method = getattr(_Evaluator, f"_eval_{t.__name__}", None)
            if method is None:
                raise ExpressionError(
                    f"cannot evaluate {t.__name__} node")
            _Evaluator._dispatch[t] = method
        return method(self, expr)

    # -- leaves ------------------------------------------------------------

    def _eval_Literal(self, expr: n.Literal):
        return expr.value

    def _eval_ColumnRef(self, expr: n.ColumnRef):
        # Memoize the uppercased names on the node and try the direct
        # dict hit; RowContext.resolve keeps the slow/diagnostic path
        # (parent scopes, ambiguity, unknown-column errors).
        d = expr.__dict__
        key = d.get("_uc")
        if key is None:
            key = d["_uc"] = (
                expr.name.upper(),
                expr.table.upper() if expr.table else None)
        upper, tbl = key
        bindings = self.ctx._bindings
        if tbl is not None:
            entry = bindings.get(tbl)
            if entry is not None:
                idx = entry[0].get(upper)
                if idx is not None:
                    return entry[1][idx]
        elif len(bindings) == 1:
            for layout, row in bindings.values():
                idx = layout.get(upper)
                if idx is not None:
                    return row[idx]
        return self.ctx.resolve(expr.name, expr.table)

    def _eval_HostParam(self, expr: n.HostParam):
        raise ExpressionError(
            f"host parameter :{expr.name} reached the evaluator unbound")

    def _eval_BoundParam(self, expr: n.BoundParam):
        return expr.value

    @staticmethod
    def _provenance(expr: n.Expr) -> str | None:
        """The input field an expression's value came from, if traceable."""
        for node in n.walk(expr):
            if isinstance(node, (n.BoundParam, n.ColumnRef)):
                return node.name
        return None

    # -- operators -----------------------------------------------------------

    def _eval_UnaryOp(self, expr: n.UnaryOp):
        value = self.eval(expr.operand)
        if expr.op == "NOT":
            if value is None:
                return None
            return not value
        if value is None:
            return None
        if expr.op == "-":
            return -_numeric(value, "unary minus")
        return _numeric(value, "unary plus")

    def _eval_BinaryOp(self, expr: n.BinaryOp):
        op = expr.op
        if op in ("AND", "OR"):
            return self._logical(op, expr.left, expr.right)
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._compare(op, left, right)
        return _binary_tail(op, left, right)

    def _logical(self, op: str, left_expr: n.Expr, right_expr: n.Expr):
        left = self.eval(left_expr)
        if op == "AND":
            if left is False:
                return False
            right = self.eval(right_expr)
            if left is None or right is None:
                return False if right is False else None
            return bool(left) and bool(right)
        # OR
        if left is True:
            return True
        right = self.eval(right_expr)
        if left is None or right is None:
            return True if right is True else None
        return bool(left) or bool(right)

    @staticmethod
    def _to_text(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, values.Timestamp):
            return value.isoformat(sep=" ")
        if isinstance(value, values.Date):
            return value.isoformat()
        return str(value)

    def _compare(self, op: str, left, right):
        if left is None or right is None:
            return None
        left, right = self._align(left, right)
        try:
            if op == "=":
                return left == right
            if op == "<>":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}") from exc

    @staticmethod
    def _align(left, right):
        """Align operand types for comparison (CHAR padding, numerics)."""
        if isinstance(left, str) and isinstance(right, str):
            # CHAR semantics: trailing blanks do not affect comparison.
            return left.rstrip(), right.rstrip()
        if isinstance(left, Decimal) and isinstance(right, float):
            return float(left), right
        if isinstance(left, float) and isinstance(right, Decimal):
            return left, float(right)
        if isinstance(left, values.Timestamp) != isinstance(
                right, values.Timestamp) and isinstance(
                left, values.Date) and isinstance(right, values.Date):
            # date vs timestamp: promote the date to midnight.
            if not isinstance(left, values.Timestamp):
                left = values.Timestamp(left.year, left.month, left.day)
            if not isinstance(right, values.Timestamp):
                right = values.Timestamp(right.year, right.month, right.day)
        return left, right

    # -- predicates -------------------------------------------------------------

    def _eval_IsNull(self, expr: n.IsNull):
        value = self.eval(expr.operand)
        result = value is None
        return not result if expr.negated else result

    def _eval_Between(self, expr: n.Between):
        value = self.eval(expr.operand)
        low = self.eval(expr.low)
        high = self.eval(expr.high)
        ge = self._compare(">=", value, low)
        le = self._compare("<=", value, high)
        if ge is None or le is None:
            result = None
        else:
            result = ge and le
        if expr.negated and result is not None:
            return not result
        return result

    def _eval_Like(self, expr: n.Like):
        value = self.eval(expr.operand)
        pattern = self.eval(expr.pattern)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ExpressionError("LIKE needs string operands")
        result = bool(_like_to_regex(pattern).match(value))
        return not result if expr.negated else result

    def _eval_InExpr(self, expr: n.InExpr):
        value = self.eval(expr.operand)
        if expr.subquery is not None:
            rows = self._run_subquery(expr.subquery)
            candidates = [row[0] for row in rows]
        else:
            fast = _in_literal_table(expr)
            if fast is not None and value is not None \
                    and type(value) is fast[2]:
                members, saw_null, ctype = fast
                probe = value.rstrip() if ctype is str else value
                if probe in members:
                    result = True
                elif saw_null:
                    result = None
                else:
                    result = False
                if expr.negated and result is not None:
                    return not result
                return result
            candidates = [self.eval(item) for item in expr.items]
        if value is None:
            return None
        found = False
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
                continue
            if self._compare("=", value, candidate) is True:
                found = True
                break
        if found:
            result = True
        elif saw_null:
            result = None
        else:
            result = False
        if expr.negated and result is not None:
            return not result
        return result

    def _eval_Exists(self, expr: n.Exists):
        rows = self._run_subquery(expr.subquery)
        result = bool(rows)
        return not result if expr.negated else result

    def _eval_SubqueryExpr(self, expr: n.SubqueryExpr):
        rows = self._run_subquery(expr.subquery)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExpressionError("scalar subquery returned several rows")
        return rows[0][0]

    def _run_subquery(self, select: n.Select) -> list[tuple]:
        if self.subquery_runner is None:
            raise ExpressionError(
                "subqueries are not available in this context")
        return self.subquery_runner(select, self.ctx)

    # -- conversions ---------------------------------------------------------------

    def _eval_Cast(self, expr: n.Cast):
        return cast_node(expr, self.eval(expr.operand))

    def _eval_CaseExpr(self, expr: n.CaseExpr):
        for when in expr.whens:
            if is_true(self.eval(when.condition)):
                return self.eval(when.result)
        if expr.else_result is not None:
            return self.eval(expr.else_result)
        return None

    # -- functions --------------------------------------------------------------------

    def _eval_FuncCall(self, expr: n.FuncCall):
        name = expr.name.upper()
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name}")
        if name == "COALESCE":
            # A CASE in SQL: an argument is reached only while every
            # earlier one is NULL.
            for arg in expr.args:
                value = self.eval(arg)
                if value is not None:
                    return value
            return None
        return call_node(expr, [self.eval(a) for a in expr.args])

    def _eval_Star(self, expr: n.Star):
        raise ExpressionError("'*' is only valid in a select list")


def cast_node(expr: n.Cast, value):
    """``expr`` applied to its operand's value, as the interpreter
    applies it: the value, or the error it raises on that value."""
    cast = _try_cast_value if expr.safe else _cast_value
    return cast(value, cdw_type_from_node(expr.type), expr.format,
                expr.type.base, _Evaluator._provenance(expr.operand))


def call_node(expr: n.FuncCall, args: list):
    """Function call ``expr`` applied to its arguments' values, as the
    interpreter applies it: the value, or the error it raises (its
    field, when the function names none, is the first argument's)."""
    try:
        return _FUNCTIONS[expr.name.upper()](args)
    except ExpressionError as exc:
        if exc.field is None and expr.args:
            exc.field = _Evaluator._provenance(expr.args[0])
        raise


def _cast_value(value, ctype, fmt, type_base: str, field):
    """CAST semantics given an already-evaluated operand value.  Shared
    by the interpreter and the vector compiler."""
    if value is None:
        return None
    try:
        if fmt is not None:
            if ctype.base == "DATE":
                if isinstance(value, values.Date):
                    return value
                return values.parse_date(str(value), fmt, field=field)
            if ctype.base == "TIMESTAMP":
                if isinstance(value, values.Timestamp):
                    return value
                return values.parse_timestamp(str(value), field=field)
            raise SqlTranslationError(
                f"FORMAT cast to {type_base} is not supported")
        return ctype.coerce(value, field=field)
    except ExpressionError as exc:
        if exc.field is None:
            exc.field = field
        raise


def _try_cast_value(value, ctype, fmt, type_base: str, field):
    """TRY_CAST semantics: :func:`_cast_value`, NULL where it raises
    on the value."""
    try:
        return _cast_value(value, ctype, fmt, type_base, field)
    except ExpressionError:
        return None


# -- scalar function library ---------------------------------------------------

def _need_str(value, fn: str) -> str:
    if isinstance(value, str):
        return value
    raise ExpressionError(f"{fn} needs a string argument, got "
                          f"{type(value).__name__}")


def _null_passthrough(fn):
    def wrapper(args):
        if args and args[0] is None:
            return None
        return fn(args)
    return wrapper


def _fn_substr(args):
    if args[0] is None:
        return None
    text = _need_str(args[0], "SUBSTR")
    start = int(args[1])
    begin = max(start - 1, 0)
    if len(args) >= 3:
        if args[2] is None:
            return None
        length = int(args[2])
        if length < 0:
            raise ExpressionError("SUBSTR length must be non-negative")
        return text[begin:begin + length]
    return text[begin:]


def _fn_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


def _fn_nullif(args):
    a, b = args
    if a is None:
        return None
    if b is not None and a == b:
        return None
    return a


def _fn_to_date(args):
    if args[0] is None:
        return None
    fmt = args[1] if len(args) > 1 and args[1] is not None \
        else values.DEFAULT_DATE_FORMAT
    if isinstance(args[0], values.Date) \
            and not isinstance(args[0], values.Timestamp):
        return args[0]
    return values.parse_date(str(args[0]), fmt)


def _fn_to_timestamp(args):
    if args[0] is None:
        return None
    if isinstance(args[0], values.Timestamp):
        return args[0]
    return values.parse_timestamp(str(args[0]))


def _try(fn):
    """The ``TRY_`` form of a function: NULL where ``fn`` raises on its
    arguments."""
    def wrapper(args):
        try:
            return fn(args)
        except ExpressionError:
            return None
    return wrapper


def _fn_mod(args):
    if args[0] is None or args[1] is None:
        return None
    if args[1] == 0:
        raise ExpressionError("MOD by zero")
    return args[0] % args[1]


def _fn_extract(args):
    part, value = args[0], args[1]
    if value is None:
        return None
    if not isinstance(value, values.Date):
        raise ExpressionError(
            f"EXTRACT needs a date/timestamp, got "
            f"{type(value).__name__}")
    part = str(part).upper()
    if part == "YEAR":
        return value.year
    if part == "MONTH":
        return value.month
    if part == "DAY":
        return value.day
    if part in ("HOUR", "MINUTE", "SECOND"):
        if not isinstance(value, values.Timestamp):
            return 0
        return {"HOUR": value.hour, "MINUTE": value.minute,
                "SECOND": value.second}[part]
    if part == "DOW":
        return value.isoweekday() % 7  # Sunday = 0
    if part == "DOY":
        return value.timetuple().tm_yday
    raise ExpressionError(f"unknown EXTRACT part {part!r}")


def _fn_round(args):
    """ROUND(x [, digits]): half away from zero, as SQL rounds."""
    if args[0] is None:
        return None
    digits = int(args[1]) if len(args) > 1 else 0
    value = _numeric(args[0], "ROUND")
    if isinstance(value, Decimal):
        quantum = Decimal(1).scaleb(-digits)
        return value.quantize(quantum, rounding=ROUND_HALF_UP)
    value = float(value)
    if not math.isfinite(value):
        return value
    # The double's shortest decimal form is what it rounds, as SQLite
    # does: ROUND(2.675, 2) is 2.68.
    shown = Decimal(repr(value))
    if shown.as_tuple().exponent >= -digits:
        return value                # no digit past the rounding place
    return float(shown.quantize(Decimal(1).scaleb(-digits),
                                rounding=ROUND_HALF_UP))


_FUNCTIONS = {
    "TRIM": _null_passthrough(lambda a: _need_str(a[0], "TRIM").strip()),
    "LTRIM": _null_passthrough(lambda a: _need_str(a[0], "LTRIM").lstrip()),
    "RTRIM": _null_passthrough(lambda a: _need_str(a[0], "RTRIM").rstrip()),
    "UPPER": _null_passthrough(lambda a: _need_str(a[0], "UPPER").upper()),
    "LOWER": _null_passthrough(lambda a: _need_str(a[0], "LOWER").lower()),
    "LENGTH": _null_passthrough(lambda a: len(_need_str(a[0], "LENGTH"))),
    "CHAR_LENGTH": _null_passthrough(
        lambda a: len(_need_str(a[0], "CHAR_LENGTH"))),
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "STRPOS": _null_passthrough(
        lambda a: None if a[1] is None
        else _need_str(a[0], "STRPOS").find(_need_str(a[1], "STRPOS")) + 1),
    "COALESCE": _fn_coalesce,
    "NULLIF": _fn_nullif,
    "ABS": _null_passthrough(lambda a: abs(_numeric(a[0], "ABS"))),
    "MOD": _fn_mod,
    "ROUND": _fn_round,
    "FLOOR": _null_passthrough(
        lambda a: int(math.floor(_numeric(a[0], "FLOOR")))),
    "CEIL": _null_passthrough(
        lambda a: int(math.ceil(_numeric(a[0], "CEIL")))),
    "CEILING": _null_passthrough(
        lambda a: int(math.ceil(_numeric(a[0], "CEILING")))),
    "TO_DATE": _fn_to_date,
    "TO_TIMESTAMP": _fn_to_timestamp,
    "TRY_TO_DATE": _try(_fn_to_date),
    "TRY_TO_TIMESTAMP": _try(_fn_to_timestamp),
    "EXTRACT": _fn_extract,
    # Legacy-dialect spellings (the reference server evaluates them raw).
    "ZEROIFNULL": lambda a: 0 if a[0] is None else a[0],
    "NULLIFZERO": lambda a: None if a[0] == 0 else a[0],
    "INDEX": _null_passthrough(
        lambda a: None if a[1] is None
        else _need_str(a[0], "INDEX").find(_need_str(a[1], "INDEX")) + 1),
    "CONCAT": lambda a: None if any(v is None for v in a)
    else "".join(_Evaluator._to_text(v) for v in a),
    # re.search semantics (unanchored); NULL in either argument is NULL,
    # matching the SQL standard's REGEXP_LIKE three-valued behaviour.
    "REGEXP_LIKE": lambda a: None if a[0] is None or a[1] is None
    else re.search(_need_str(a[1], "REGEXP_LIKE"),
                   _Evaluator._to_text(a[0])) is not None,
}


# -- vectorized compilation ----------------------------------------------------
#
# Two evaluators, one job each.  ``_Evaluator`` above is the semantics:
# it runs one row at a time, serves every statement shape the vector
# path does not (UPDATE, MERGE, joins, VALUES, HAVING, subqueries), and
# names the canonical error of a failed vector statement.  For columnar
# tables the engine compiles an expression once per (layout, binding)
# into a *vector* closure: ``fn(batch) -> (is_const, payload)`` where
# payload is either a single value (constant over the batch) or a list
# with one entry per batch row.
#
# A closure raises iff the interpreter raises on some row of the batch.
# Evaluation is eager where the interpreter is (function arguments, IN
# lists, BETWEEN bounds); where it short-circuits — the right side of
# AND/OR, the conditions and arms of CASE — an operand that raises
# eagerly is evaluated again over just the rows the interpreter reaches
# (:func:`_reached_values`).  The closures are row-independent, so the
# engine can name the first raising row itself
# (:func:`first_failing_row`) and hand only that row to the interpreter
# for the error; a located row the interpreter accepts is a bug in this
# file and the engine says so loudly.  ``compile_vector`` returns None
# for any node kind it does not understand; the engine then runs the
# whole statement on the interpreter.
#
# A text column of a columnar table reaches the closures as a
# ``TextSlice`` (its blob, offsets and validity, read in place), and
# ``vec_values`` / ``_value_getter`` are the one place it becomes a
# list of ``str``: every closure that iterates a payload goes through
# them.  Before that, a few *kernels* try to decide a whole slice with
# C-level calls over its buffers — TRIM/LTRIM/RTRIM (the identity when
# no value holds a character ``str.strip()`` removes) and TO_DATE /
# TRY_TO_DATE / CAST .. AS DATE FORMAT with a YYYY/MM/DD format
# (``_date_kernel``).  A kernel never raises: one that cannot decide
# *declines*, the batch counts it (``ColumnBatch.decline``), and that
# one expression runs its per-value closure, whose errors are the
# interpreter's.  An INSERT..SELECT hands the slices that reach its
# select list to the engine's coercion as buffers.

#: what eager vector evaluation (and bulk coercion) raises for a bad row.
VECTOR_ERRORS = (ExpressionError, SqlTranslationError)

#: the buffer kernels, by the name their declines are counted under.
KERNELS = ("trim", "to_date")

#: evaluator instance backing the vector closures' _compare calls
#: (carries no state the closures use).
_VEC_EV = _Evaluator(None, None)

_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")

_PY_CMP = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


class ColumnBatch:
    """Lazy column slices of one table over a row range ``[lo, hi)``.

    Vector closures pull whole columns out of the table's column store
    on first touch (a text column as a ``TextSlice``); untouched
    columns are never materialized.  ``note(kernel)`` is called once
    per expression a kernel declines (:meth:`decline`).
    """

    __slots__ = ("table", "lo", "hi", "length", "_cols", "_declined",
                 "_note")

    def __init__(self, table, lo: int, hi: int, note=None):
        self.table = table
        self.lo = lo
        self.hi = hi
        self.length = hi - lo
        self._cols: dict = {}
        self._declined: set = set()
        self._note = note

    def col(self, idx: int):
        """Column ``idx`` over the batch range — a list, or a
        ``TextSlice`` of a text column — made once per batch."""
        c = self._cols.get(idx)
        if c is None:
            c = self._cols[idx] = self.table.column_vector(
                idx, self.lo, self.hi)
        return c

    def row(self, i: int) -> tuple:
        """Batch row ``i`` as a table tuple (error localisation only)."""
        return self.table.rows[self.lo + i]

    def decline(self, kernel: str, expr: n.Expr) -> None:
        """Record that ``kernel`` left ``expr``'s column to its
        per-value closure: noted once per expression, however often
        sub-batches re-run it (bisects, short-circuit re-evaluation)."""
        key = (kernel, id(expr))
        if key not in self._declined:
            self._declined.add(key)
            if self._note is not None:
                self._note(kernel)


class GatherBatch:
    """A selection of a parent batch's rows, presented as a batch.

    Used after the WHERE mask: projection and aggregate arguments must
    evaluate over exactly the surviving rows (the rows the row path
    would touch), so errors stay symmetric between the two paths.
    """

    __slots__ = ("parent", "sel", "length", "_cols", "_runs")

    def __init__(self, parent, sel: "list | range"):
        self.parent = parent
        self.sel = sel
        self.length = len(sel)
        self._cols: dict = {}
        self._runs = None

    def col(self, idx: int):
        """Selected values of column ``idx``, gathered once per batch (a
        text column's stay buffers), a run of consecutive rows at a
        time."""
        c = self._cols.get(idx)
        if c is None:
            pc = self.parent.col(idx)
            sel = self.sel
            if type(sel) is range and sel.step == 1:
                c = pc.sub(sel.start, sel.stop) if type(pc) is TextSlice \
                    else pc[sel.start:sel.stop]
            else:
                if self._runs is None:
                    self._runs = runs(sel)
                if type(pc) is TextSlice:
                    lo = pc.lo
                    c = TextSlice(pc.column.take_runs([
                        (start + lo, stop + lo)
                        for start, stop in self._runs]), 0, len(sel))
                else:
                    c = list(chain.from_iterable(
                        pc[start:stop] for start, stop in self._runs))
            self._cols[idx] = c
        return c

    def row(self, i: int) -> tuple:
        """Selected row ``i`` as a table tuple (error localisation only)."""
        return self.parent.row(self.sel[i])

    def decline(self, kernel: str, expr: n.Expr) -> None:
        """:meth:`ColumnBatch.decline`, noted on the parent."""
        self.parent.decline(kernel, expr)


def vec_values(result, nrows: int) -> list:
    """Expand a vector-closure result into a per-row value list — the
    one place (with :func:`_value_getter`) a ``TextSlice`` is decoded."""
    const, payload = result
    if const:
        return [payload] * nrows
    if type(payload) is TextSlice:
        return payload.to_list()
    return payload


def first_failing_row(nrows: int, attempt) -> int:
    """Smallest ``i`` for which ``attempt(i, i + 1)`` raises.

    ``attempt(a, b)`` evaluates rows ``[a, b)`` and raises one of
    :data:`VECTOR_ERRORS` iff one of those rows is bad (row-independent
    work: vector closures over a sub-batch, bulk coercion of a slice);
    the caller has seen ``attempt(0, nrows)`` raise.  Halving the
    candidate range costs about one more pass over the rows in total.
    """
    lo, hi = 0, nrows
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            attempt(lo, mid)
        except VECTOR_ERRORS:
            hi = mid
        else:
            lo = mid
    return lo


def _value_getter(result):
    """Per-row accessor ``fn(i)`` over a vector-closure result."""
    const, payload = result
    if const:
        return lambda i: payload
    if type(payload) is TextSlice:
        return payload.to_list().__getitem__
    return payload.__getitem__


def compile_vector(expr: n.Expr, layout: dict[str, int],
                   binding_upper: str):
    """Compile ``expr`` into a vector closure for one table layout.

    Returns ``fn(batch) -> (is_const, payload)`` or None when the
    expression contains a node the vector compiler does not support
    (subqueries, outer references, unknown columns, ...), in which case
    the caller must use the row path.  Memoized per (layout, binding)
    on the node.  Tree *structure* is treated as read-only; node values
    may be rebound between calls — the prepared-DML cache rebinds the
    ``__SEQ`` range literals of a shared statement template
    (PreparedDml.bind) — so closures read ``Literal.value`` and
    ``BoundParam.value`` live.
    """
    cache = expr.__dict__.get("_vcompiled")
    if cache is None:
        cache = expr.__dict__["_vcompiled"] = {}
    key = (id(layout), binding_upper)
    try:
        return cache[key]
    except KeyError:
        fn = _vcompile(expr, layout, binding_upper)
        cache[key] = fn
        return fn


def _vcompile(expr: n.Expr, layout: dict[str, int], bu: str):
    t = type(expr)
    if t is n.Literal:
        return lambda b: (True, expr.value)      # reads the live binding
    if t is n.BoundParam:
        return lambda b: (True, expr.value)
    if t is n.ColumnRef:
        if expr.table is not None and expr.table.upper() != bu:
            return None                          # outer/other binding
        idx = layout.get(expr.name.upper())
        if idx is None:
            return None                          # unknown: row path errors
        return lambda b: (False, b.col(idx))
    if t is n.IsNull:
        return _vcompile_isnull(expr, layout, bu)
    if t is n.UnaryOp:
        return _vcompile_unary(expr, layout, bu)
    if t is n.BinaryOp:
        return _vcompile_binary(expr, layout, bu)
    if t is n.Between:
        return _vcompile_between(expr, layout, bu)
    if t is n.CaseExpr:
        return _vcompile_case(expr, layout, bu)
    if t is n.InExpr and expr.subquery is None:
        return _vcompile_in(expr, layout, bu)
    if t is n.Like:
        return _vcompile_like(expr, layout, bu)
    if t is n.Cast:
        return _vcompile_cast(expr, layout, bu)
    if t is n.FuncCall and not expr.distinct:
        if expr.name.upper() == "COALESCE":
            return _vcompile_coalesce(expr, layout, bu)
        handler = _FUNCTIONS.get(expr.name.upper())
        if handler is not None:
            return _vcompile_func(expr, handler, layout, bu)
    return None


def _vcompile_isnull(expr: n.IsNull, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    negated = expr.negated

    def _isnull(b):
        res = operand(b)
        if res[0]:
            result = res[1] is None
            return (True, not result if negated else result)
        if type(res[1]) is TextSlice:       # the validity bytes say it
            valid = res[1].valid()
            return (False, list(map(bool, valid)) if negated
                    else list(map((0).__eq__, valid)))
        payload = vec_values(res, b.length)
        if negated:
            return (False, [v is not None for v in payload])
        return (False, [v is None for v in payload])
    return _isnull


def _vcompile_unary(expr: n.UnaryOp, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    op = expr.op

    def _scalar(v):
        if v is None:
            return None
        if op == "NOT":
            return not v
        if op == "-":
            return -_numeric(v, "unary minus")
        return +_numeric(v, "unary plus")

    def _unary(b):
        res = operand(b)
        if res[0]:
            return (True, _scalar(res[1]))
        return (False, [_scalar(v) for v in vec_values(res, b.length)])
    return _unary


def _v_and(lv, rv):
    """Three-valued AND given both operand values (mirrors _logical)."""
    if lv is False:
        return False
    if lv is None or rv is None:
        return False if rv is False else None
    return bool(lv) and bool(rv)


def _v_or(lv, rv):
    """Three-valued OR given both operand values (mirrors _logical)."""
    if lv is True:
        return True
    if lv is None or rv is None:
        return True if rv is True else None
    return bool(lv) or bool(rv)


def _reached_values(fn, b, reached) -> list:
    """``fn``'s per-row values over batch ``b`` for an operand the
    interpreter evaluates on some rows only: ``reached()`` lists them.

    Eager evaluation over the whole batch serves every statement that
    does not fail.  When it raises, ``fn`` runs again over the reached
    rows alone, so it raises iff the interpreter does; unreached rows
    read None (their value is never used), and with no reached row
    ``fn`` does not run at all — a constant that cannot be cast raises
    for every row and for none.
    """
    nrows = b.length
    try:
        return vec_values(fn(b), nrows)
    except VECTOR_ERRORS:
        rows = reached()
        if len(rows) == nrows:
            raise
    out = [None] * nrows
    if rows:
        values_ = vec_values(fn(GatherBatch(b, rows)), len(rows))
        for i, value in zip(rows, values_):
            out[i] = value
    return out


def _vcompile_binary(expr: n.BinaryOp, layout, bu):
    op = expr.op
    left = compile_vector(expr.left, layout, bu)
    right = compile_vector(expr.right, layout, bu)
    if left is None or right is None:
        return None
    if op in ("AND", "OR"):
        pair = _v_and if op == "AND" else _v_or
        decided = op == "OR"        # the left value that skips the right

        def _logic(b):
            lres = left(b)
            lv = lres[1]
            if lres[0]:
                if lv is decided:
                    return (True, decided)
                rres = right(b)
                if rres[0]:
                    return (True, pair(lv, rres[1]))
                return (False, [pair(lv, c)
                                for c in vec_values(rres, b.length)])
            lv = vec_values(lres, b.length)
            rv = _reached_values(right, b, lambda: [
                i for i, a in enumerate(lv) if a is not decided])
            return (False, [pair(a, c) for a, c in zip(lv, rv)])
        return _logic
    if op in _CMP_OPS:
        return _vcompile_compare(op, left, right)

    def _arith(b):
        lres, rres = left(b), right(b)
        if lres[0] and rres[0]:
            return (True, _binary_tail(op, lres[1], rres[1]))
        nrows = b.length
        lv = vec_values(lres, nrows)
        rv = vec_values(rres, nrows)
        return (False, [_binary_tail(op, a, c) for a, c in zip(lv, rv)])
    return _arith


def _vcompile_compare(op: str, left, right):
    compare = _VEC_EV._compare
    pyop = _PY_CMP[op]

    def _cmp(b):
        lres, rres = left(b), right(b)
        lc, lv = lres
        rc, rv = rres
        if lc and rc:
            return (True, compare(op, lv, rv))
        if not lc:
            lv = vec_values(lres, b.length)
        if not rc:
            rv = vec_values(rres, b.length)
        if lc:                                   # const <op> vector
            if lv is None:
                return (True, None)
            if type(lv) is int:
                return (False, [
                    None if v is None else
                    (pyop(lv, v) if type(v) is int else compare(op, lv, v))
                    for v in rv])
            return (False, [None if v is None else compare(op, lv, v)
                            for v in rv])
        if rc:                                   # vector <op> const
            if rv is None:
                return (True, None)
            if type(rv) is int:
                return (False, [
                    None if v is None else
                    (pyop(v, rv) if type(v) is int else compare(op, v, rv))
                    for v in lv])
            if type(rv) is str:
                cr = rv.rstrip()
                return (False, [
                    None if v is None else
                    (pyop(v.rstrip(), cr) if type(v) is str
                     else compare(op, v, rv))
                    for v in lv])
            return (False, [None if v is None else compare(op, v, rv)
                            for v in lv])
        return (False, [compare(op, a, c) for a, c in zip(lv, rv)])
    return _cmp


def _vcompile_between(expr: n.Between, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    low = compile_vector(expr.low, layout, bu)
    high = compile_vector(expr.high, layout, bu)
    if operand is None or low is None or high is None:
        return None
    negated = expr.negated
    compare = _VEC_EV._compare

    def _pair(value, lo, hi):
        ge = compare(">=", value, lo)
        le = compare("<=", value, hi)
        if ge is None or le is None:
            result = None
        else:
            result = ge and le
        if negated and result is not None:
            return not result
        return result

    def _between(b):
        vres, lres, hres = operand(b), low(b), high(b)
        if vres[0] and lres[0] and hres[0]:
            return (True, _pair(vres[1], lres[1], hres[1]))
        nrows = b.length
        if not vres[0] and lres[0] and hres[0] \
                and type(lres[1]) is int and type(hres[1]) is int:
            lo, hi = lres[1], hres[1]
            vv = vec_values(vres, nrows)
            if negated:
                return (False, [
                    None if v is None else
                    (not lo <= v <= hi if type(v) is int
                     else _pair(v, lo, hi))
                    for v in vv])
            return (False, [
                None if v is None else
                (lo <= v <= hi if type(v) is int else _pair(v, lo, hi))
                for v in vv])
        value_at = _value_getter(vres)
        lo_at = _value_getter(lres)
        hi_at = _value_getter(hres)
        return (False, [_pair(value_at(i), lo_at(i), hi_at(i))
                        for i in range(nrows)])
    return _between


def _vcompile_case(expr: n.CaseExpr, layout, bu):
    whens = []
    for when in expr.whens:
        condition = compile_vector(when.condition, layout, bu)
        result = compile_vector(when.result, layout, bu)
        if condition is None or result is None:
            return None
        whens.append((condition, result))
    else_fn = None
    if expr.else_result is not None:
        else_fn = compile_vector(expr.else_result, layout, bu)
        if else_fn is None:
            return None

    def _case(b):
        out = [None] * b.length
        rest = range(b.length)      # rows no earlier WHEN has claimed
        for condition, result in whens:
            if not rest:
                break
            cv = _reached_values(condition, b, lambda: rest)
            hits = [i for i in rest if cv[i] is True]
            if hits:
                rv = _reached_values(result, b, lambda: hits)
                for i in hits:
                    out[i] = rv[i]
                rest = [i for i in rest if cv[i] is not True]
        if else_fn is not None and rest:
            ev = _reached_values(else_fn, b, lambda: rest)
            for i in rest:
                out[i] = ev[i]
        return (False, out)
    return _case


def _vcompile_coalesce(expr: n.FuncCall, layout, bu):
    arg_fns = []
    for arg in expr.args:
        fn = compile_vector(arg, layout, bu)
        if fn is None:
            return None
        arg_fns.append(fn)

    def _coalesce(b):
        out = [None] * b.length
        rest = range(b.length)      # rows every earlier argument left NULL
        for fn in arg_fns:
            if not rest:
                break
            values_ = _reached_values(fn, b, lambda: rest)
            for i in rest:
                out[i] = values_[i]
            rest = [i for i in rest if values_[i] is None]
        return (False, out)
    return _coalesce


def _vcompile_in(expr: n.InExpr, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    item_fns = []
    for item in expr.items:
        fn = compile_vector(item, layout, bu)
        if fn is None:
            return None
        item_fns.append(fn)
    negated = expr.negated
    fast = _in_literal_table(expr)
    compare = _VEC_EV._compare

    def _generic(value, candidates):
        # Mirrors the interpreter's per-row IN scan exactly.
        if value is None:
            return None
        found = False
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
                continue
            if compare("=", value, candidate) is True:
                found = True
                break
        if found:
            result = True
        elif saw_null:
            result = None
        else:
            result = False
        if negated and result is not None:
            return not result
        return result

    def _in(b):
        vres = operand(b)
        nrows = b.length
        if fast is not None:
            members, saw_null, ctype = fast
            vv = [vres[1]] if vres[0] else vec_values(vres, nrows)
            out = []
            append = out.append
            candidates = None
            for value in vv:
                if value is not None and type(value) is ctype:
                    probe = value.rstrip() if ctype is str else value
                    if probe in members:
                        result = True
                    elif saw_null:
                        result = None
                    else:
                        result = False
                    if negated and result is not None:
                        result = not result
                    append(result)
                else:
                    if candidates is None:
                        candidates = [g(0) for g in
                                      (_value_getter(f(b))
                                       for f in item_fns)]
                    append(_generic(value, candidates))
            if vres[0]:
                return (True, out[0])
            return (False, out)
        item_results = [f(b) for f in item_fns]
        if vres[0] and all(const for const, _ in item_results):
            return (True, _generic(
                vres[1], [payload for _, payload in item_results]))
        item_getters = [_value_getter(r) for r in item_results]
        value_at = _value_getter(vres)
        return (False, [_generic(value_at(i),
                                 [g(i) for g in item_getters])
                        for i in range(nrows)])
    return _in


def _vcompile_like(expr: n.Like, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    pattern = compile_vector(expr.pattern, layout, bu)
    if operand is None or pattern is None:
        return None
    negated = expr.negated

    def _pair(value, pat):
        if value is None or pat is None:
            return None
        if not isinstance(value, str) or not isinstance(pat, str):
            raise ExpressionError("LIKE needs string operands")
        result = bool(_like_to_regex(pat).match(value))
        return not result if negated else result

    def _like(b):
        vres, pres = operand(b), pattern(b)
        if vres[0] and pres[0]:
            return (True, _pair(vres[1], pres[1]))
        nrows = b.length
        value_at = _value_getter(vres)
        pat_at = _value_getter(pres)
        return (False, [_pair(value_at(i), pat_at(i))
                        for i in range(nrows)])
    return _like


def _vcompile_cast(expr: n.Cast, layout, bu):
    operand = compile_vector(expr.operand, layout, bu)
    if operand is None:
        return None
    ctype = cdw_type_from_node(expr.type)
    fmt = expr.format
    type_base = expr.type.base
    field = _Evaluator._provenance(expr.operand)
    cast = _try_cast_value if expr.safe else _cast_value
    dates = fmt is not None and ctype.base == "DATE"
    text = fmt is None and ctype.base in ("NVARCHAR", "VARCHAR")

    def _cast(b):
        res = operand(b)
        if res[0]:
            return (True, cast(res[1], ctype, fmt, type_base, field))
        if type(res[1]) is TextSlice:
            if text and (ctype.length is None
                         or res[1].max_width() <= ctype.length):
                return (False, res[1])      # every value fits as it is
            if dates:
                got = _date_kernel(res[1], fmt)
                if got is not None and not got[1]:
                    return (False, got[0])
                b.decline("to_date", expr)
                if got is not None:
                    return (False, _per_value(got, res[1], lambda v: cast(
                        v, ctype, fmt, type_base, field)))
        payload = vec_values(res, b.length)
        if expr.safe and fmt is None:
            try:                # bulk coercion, when no value fails
                return (False, ctype.coerce_many(payload, field=field))
            except ExpressionError:
                pass
        return (False, [cast(v, ctype, fmt, type_base, field)
                        for v in payload])
    return _cast


def _per_value(got, text: TextSlice, fn) -> list:
    """A kernel's partial result ``(out, undecided)`` completed by the
    per-value closure ``fn`` on each undecided value, in row order — a
    decided value never raises, so the first error is the first bad
    row's."""
    out, undecided = got
    column, lo = text.column, text.lo
    for i in undecided:
        out[i] = fn(column[lo + i])
    return out


def _trim_kernel(text: TextSlice, args: list):
    """TRIM, LTRIM, RTRIM: the slice itself when stripping changes no
    value, else None."""
    return (text, ()) if text.trim_safe() else None


def _to_date_kernel(text: TextSlice, args: list):
    """TO_DATE, TRY_TO_DATE: :func:`_date_kernel` with the constant
    format (the default when absent or NULL), else None."""
    fmt = args[0] if args and args[0] is not None \
        else values.DEFAULT_DATE_FORMAT
    return _date_kernel(text, fmt) if type(fmt) is str else None


#: function name -> (kernel name, kernel): the first argument a
#: ``TextSlice``, the others constant.  A kernel returns ``(out,
#: undecided)`` — the values, and the rows it left for the per-value
#: closure — or None when it decides nothing.
_FUNC_KERNELS = {
    "TRIM": ("trim", _trim_kernel),
    "LTRIM": ("trim", _trim_kernel),
    "RTRIM": ("trim", _trim_kernel),
    "TO_DATE": ("to_date", _to_date_kernel),
    "TRY_TO_DATE": ("to_date", _to_date_kernel),
}

_DIGITS = b"0123456789"
#: maps every ASCII digit to ``0`` and leaves every other byte alone.
_DIGITS_AS_ZERO = bytes.maketrans(_DIGITS, b"0" * len(_DIGITS))
_DATE_ATOMS = ("YYYY", "MM", "DD")
_ZERO = re.compile(b"\x00")


@functools.lru_cache(maxsize=64)
def _date_shape(fmt: str):
    """``(template, parse, stretches, values)`` of a format made of
    YYYY, MM and DD once each and single-character separators that are
    ASCII, not alphanumeric and not whitespace — or None.

    ``template`` is the format's shape with ``0`` for every digit
    (``b"0000-00-00"``); ``parse`` turns one such value into a date;
    ``stretches`` matches a run of back-to-back templates, and
    ``values`` cuts text into values of the template's width.
    """
    tokens = values.date_format_tokens(fmt)
    template, at = "", {}
    for token in tokens:
        if token in _DATE_ATOMS and token not in at:
            at[token] = len(template)
            template += "0" * len(token)
        elif len(token) == 1 and token.isascii() \
                and not token.isalnum() and not token.isspace():
            template += token
        else:
            return None
    if len(at) != len(_DATE_ATOMS):
        return None
    if tokens == ("YYYY", "-", "MM", "-", "DD"):
        parse = values.Date.fromisoformat
    else:
        y, m, d = at["YYYY"], at["MM"], at["DD"]

        def parse(text):
            return values.Date(int(text[y:y + 4]), int(text[m:m + 2]),
                               int(text[d:d + 2]))
    return (template.encode("ascii"), parse,
            re.compile(b"(?:%s)+" % re.escape(template.encode("ascii"))),
            re.compile(".{%d}" % len(template), re.DOTALL))


def _date_kernel(text: TextSlice, fmt: str):
    """``(out, undecided)``: ``parse_date(v, fmt)`` of every value of
    the slice it can prove, and the rows it leaves to the per-value
    path — or None when the format is not one it reads.

    A value is decided when it has, digit for digit, the format's exact
    shape (its bytes, digits mapped to ``0``, equal the template): such
    a value is ASCII, has no whitespace to strip, and ``parse_date``
    reads it as ``parse`` does.  ``parse`` may be ``date.fromisoformat``
    only behind that check: on its own it also accepts ``20140309`` and
    ``2014-W10-1``.  When every present value has the format's width,
    one compare of the slice's bytes with the repeated template proves
    them all (the whole-blob form of a ``fullmatch`` of
    ``(?:\\d{4}-\\d{2}-\\d{2})*``).  Otherwise a regex finds the
    stretches of back-to-back templates, and the values that tile a
    stretch exactly (their end offsets step by the width from its
    start) are proven, a stretch at a time.  Values ``parse_date``
    takes in another shape (``2014-3-9``, padded), impossible dates
    (``2014-02-30``, year 0), values that are no date at all and any
    value a stretch does not line up with are undecided: the per-value
    path returns or raises on them as before.  NULLs are decided.
    """
    shape = _date_shape(fmt)
    if shape is None:
        return None
    template, parse, stretches, cut = shape
    width = len(template)
    data = text.data()
    shaped = data.translate(_DIGITS_AS_ZERO)
    valid = text.valid()
    if shaped == template * (len(data) // width) \
            and text.has_width(width):
        try:
            dates = list(map(parse, cut.findall(data.decode("ascii"))))
        except ValueError:          # an impossible date among them
            pass
        else:
            if len(dates) == len(valid):
                return dates, ()
            present = iter(dates)
            return [next(present) if v else None for v in valid], ()
    spans = [match.span() for match in stretches.finditer(shaped)]
    if not spans:                   # not one value has the shape
        return [None] * len(valid), list(compress(range(len(valid)), valid))
    # ends[j] ends present value j: NULLs take no bytes, so the present
    # values lie back to back from the slice's first byte.
    ends = text.column.offsets[text.lo:text.hi + 1]
    base = ends[0]
    if 0 in valid:
        ends = array("q", [base]) + array(
            "q", compress(islice(ends, 1, None), valid))
    count = len(ends) - 1
    widths = list(map(sub, islice(ends, 1, None), ends))
    runs = []               # (first present value, values, first byte)
    for a, e in spans:
        j, k = bisect_left(ends, base + a), (e - a) // width
        if j < count and ends[j] == base + a \
                and widths[j:j + k].count(width) == k:
            runs.append((j, k, a))
    out = [None] * count
    decided = bytearray(count)
    flat = data.decode("latin-1")   # byte offsets stay char offsets
    shown = cut.findall("".join([flat[a:a + k * width]
                                 for _, k, a in runs]))
    try:
        dates = list(map(parse, shown))
    except ValueError:              # an impossible date among them
        dates = None
    at = 0
    for j, k, _ in runs:
        if dates is not None:
            out[j:j + k] = dates[at:at + k]
            decided[j:j + k] = b"\x01" * k
        else:
            for i, value in enumerate(shown[at:at + k], j):
                try:
                    out[i] = parse(value)
                    decided[i] = 1
                except ValueError:
                    pass
        at += k
    undecided = [match.start() for match in _ZERO.finditer(decided)]
    if count < len(valid):          # back from present values to rows
        present = iter(out)
        out = [next(present) if v else None for v in valid]
        rows = list(compress(range(len(valid)), valid))
        undecided = [rows[i] for i in undecided]
    return out, undecided


def _vcompile_func(expr: n.FuncCall, handler, layout, bu):
    arg_fns = []
    for arg in expr.args:
        fn = compile_vector(arg, layout, bu)
        if fn is None:
            return None
        arg_fns.append(fn)
    name, kernel = _FUNC_KERNELS.get(expr.name.upper(), (None, None))

    def _call(b):
        results = [fn(b) for fn in arg_fns]
        try:
            if all(const for const, _ in results):
                return (True, handler([payload for _, payload in results]))
            nrows = b.length
            if kernel is not None and type(results[0][1]) is TextSlice \
                    and all(const for const, _ in results[1:]):
                rest = [payload for _, payload in results[1:]]
                got = kernel(results[0][1], rest)
                if got is not None and not got[1]:
                    return (False, got[0])
                b.decline(name, expr)
                if got is not None:
                    return (False, _per_value(
                        got, results[0][1],
                        lambda v: handler([v, *rest])))
            if len(results) == 1:
                vec = vec_values(results[0], nrows)
                return (False, [handler([v]) for v in vec])
            vecs = [vec_values(r, nrows) for r in results]
            return (False, [handler(list(args)) for args in zip(*vecs)])
        except ExpressionError as exc:
            if exc.field is None and expr.args:
                exc.field = _Evaluator._provenance(expr.args[0])
            raise
    return _call
