"""Compile a ruleset into set-oriented SQL over the staging table.

The per-row kinds (``not_null``, ``range``, ``regex``, ``in_set``,
``sql``) all reduce to one pass in the style of Kontra's
``SqlExecutor.compile``::

    SELECT __SEQ,
           CASE WHEN … THEN 1 ELSE 0 END AS F0,
           CASE WHEN … THEN 1 ELSE 0 END AS F1, …
      FROM HQ_STG_j1
     WHERE __SEQ BETWEEN :lo AND :hi AND (F0 = 1 OR F1 = 1 …)

whose rows are the range's violators and whose flag sums are the
``{rule_id: failed_count}`` counts.  Every CASE yields a 0/1 *violation
flag* — never NULL — so SQL three-valued logic cannot leak a violation
past the WHERE.  The cross-row kinds (``unique``, ``referential``)
compile to grouping / set-difference passes instead.

All range-scoped statements carry a non-negated ``__SEQ BETWEEN``
conjunct, so the engine's zone-map pruning turns each pass into a
binary-searched slice scan rather than a full staging scan.

:class:`ApplyLocatePass` applies the same idea to the apply DML itself:
from a prepared ``INSERT … SELECT`` and its target's schema it derives
the rows the statement will fail on — failed conversions, values the
target column cannot hold, NULLs into NOT NULL columns, lost unique
keys within the range — as one verdict pass (each failing row's first
failing check and that check's input value) plus one key pass, so the
adaptive error handler can route a failed range set-wise instead of
halving it.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import chain, compress
from operator import itemgetter

from repro.cdw.engine import statement_error
from repro.cdw.expressions import call_node, cast_node
from repro.cdw.types import cdw_type_from_node
from repro.dq.rules import PER_ROW_KINDS, SET_KINDS, DqRule
from repro.errors import BulkExecutionError, ExpressionError
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_statement

__all__ = ["CompiledRuleSet", "ApplyLocatePass", "violation_flag",
           "et_insert", "staging_delete", "surviving_first_losers",
           "SEQ_COLUMN"]

#: Hyper-Q's synthetic staging order column.  Redeclared from
#: :data:`repro.core.beta.SEQ_COLUMN` (the canonical definition) so
#: ``repro.dq`` stays importable standalone — importing the gateway
#: package from here would be circular.
SEQ_COLUMN = "__SEQ"

_ONE = n.Literal(1)
_ZERO = n.Literal(0)


def _and(*conjuncts):
    """Left-folded AND over the given condition nodes."""
    expr = conjuncts[0]
    for conjunct in conjuncts[1:]:
        expr = n.BinaryOp("AND", expr, conjunct)
    return expr


def _seq_between(lo: int, hi: int):
    return n.Between(n.ColumnRef(SEQ_COLUMN),
                     n.Literal(lo), n.Literal(hi))


def _parse_predicate(rule: DqRule, staging_table: str):
    """The ``sql``-kind predicate as an expression tree."""
    wrapper = parse_statement(
        f"SELECT 1 FROM {staging_table} WHERE ({rule.predicate})",
        dialect="cdw")
    if wrapper.where is None:  # pragma: no cover - parser guarantees
        raise ValueError(
            f"dq rule {rule.rule_id}: unparseable predicate")
    return wrapper.where


def violation_flag(rule: DqRule, staging_table: str):
    """A CASE expression yielding 1 iff the row violates ``rule``.

    The flag is always 0 or 1 — NULL column values short-circuit to
    the kind's documented exemption before any comparison can go
    three-valued.
    """
    col = n.ColumnRef(rule.column) if rule.column else None
    if rule.kind == "not_null":
        return n.CaseExpr(
            [n.WhenClause(n.IsNull(col), _ONE)], _ZERO)
    if rule.kind == "range":
        whens = [n.WhenClause(n.IsNull(col), _ZERO)]
        if rule.min is not None:
            whens.append(n.WhenClause(
                n.BinaryOp("<", col, n.Literal(rule.min)), _ONE))
        if rule.max is not None:
            whens.append(n.WhenClause(
                n.BinaryOp(">", col, n.Literal(rule.max)), _ONE))
        return n.CaseExpr(whens, _ZERO)
    if rule.kind == "regex":
        return n.CaseExpr(
            [n.WhenClause(n.IsNull(col), _ZERO),
             n.WhenClause(
                 n.FuncCall("REGEXP_LIKE",
                            [col, n.Literal(rule.pattern)]), _ZERO)],
            _ONE)
    if rule.kind == "in_set":
        return n.CaseExpr(
            [n.WhenClause(n.IsNull(col), _ZERO),
             n.WhenClause(
                 n.InExpr(col, [n.Literal(v) for v in rule.values]),
                 _ZERO)],
            _ONE)
    if rule.kind == "sql":
        return n.CaseExpr(
            [n.WhenClause(_parse_predicate(rule, staging_table),
                          _ZERO)],
            _ONE)
    raise ValueError(f"rule kind {rule.kind} has no per-row flag")


def et_insert(et_table: str, rows: "list[tuple]") -> n.Insert:
    """Batched multi-row INSERT routing violations to the error table."""
    return n.Insert(
        n.TableRef(et_table), [],
        n.Values([[n.Literal(v) for v in row] for row in rows]))


def staging_delete(staging_table: str, seqs: "list[int]") -> n.Delete:
    """Remove the given staging rows (one zone-map-prunable DELETE).

    The BETWEEN over min/max keeps the scan a binary-searched slice;
    the IN list picks the exact rows inside it.
    """
    return n.Delete(
        n.TableRef(staging_table), None,
        _and(_seq_between(min(seqs), max(seqs)),
             n.InExpr(n.ColumnRef(SEQ_COLUMN),
                      [n.Literal(s) for s in seqs])))


class CompiledRuleSet:
    """A ruleset's rules rendered to reusable statement templates.

    Flag expressions are built once; only the ``__SEQ`` range literals
    differ between invocations (the engine treats handed-over trees as
    read-only, so sharing subtrees across statements is safe).
    """

    def __init__(self, ruleset, staging_table: str):
        self.ruleset = ruleset
        self.staging_table = staging_table
        self.per_row_rules = tuple(
            r for r in ruleset.rules if r.kind in PER_ROW_KINDS)
        self.set_rules = tuple(
            r for r in ruleset.rules if r.kind in SET_KINDS)
        self._flags = {
            r.rule_id: violation_flag(r, staging_table)
            for r in self.per_row_rules}

    def validate_columns(self, available: "set[str]") -> None:
        """Reject rules naming columns the staging layout lacks."""
        for rule in self.ruleset.rules:
            missing = [c for c in rule.referenced_columns
                       if c not in available]
            if missing:
                raise ValueError(
                    f"dq rule {rule.rule_id} references unknown "
                    f"staging column(s): {', '.join(missing)}")

    # -- per-row pass ------------------------------------------------------

    def routing_flags_select(self, rules: "tuple[DqRule, ...]",
                             lo: int, hi: int) -> n.Select:
        """``(__SEQ, flag…)`` of rows violating any given per-row rule.

        One scan finds and counts every per-row rule's violators in the
        range — the WHERE keeps clean rows out of the result, the flag
        columns say which of the rules each surviving row broke.
        """
        items = [n.SelectItem(n.ColumnRef(SEQ_COLUMN))]
        any_hit = None
        for i, rule in enumerate(rules):
            flag = self._flags[rule.rule_id]
            items.append(n.SelectItem(flag, alias=f"F{i}"))
            hit = n.BinaryOp("=", flag, _ONE)
            any_hit = hit if any_hit is None else \
                n.BinaryOp("OR", any_hit, hit)
        return n.Select(
            items, from_=n.TableRef(self.staging_table),
            where=_and(_seq_between(lo, hi), any_hit))

    # -- unique ------------------------------------------------------------

    def unique_keys_select(self, rule: DqRule) -> n.Select:
        """(key…, __SEQ) of every row in the staging table (the walk
        skips keys with a NULL part, so no WHERE filters them first).

        Scans the whole table on purpose: the surviving-first-
        occurrence cascade must hold *globally*, so a duplicate always
        sees the earlier winner here, whatever range is checked.
        """
        items = [n.SelectItem(n.ColumnRef(c))
                 for c in rule.key_columns]
        items.append(n.SelectItem(n.ColumnRef(SEQ_COLUMN)))
        return n.Select(items, from_=n.TableRef(self.staging_table))

    # -- referential -------------------------------------------------------

    def referential_members_select(self, rule: DqRule, lo: int,
                                   hi: int) -> n.Select:
        """(child value, __SEQ) of every non-NULL row in the range."""
        return n.Select(
            [n.SelectItem(n.ColumnRef(rule.column)),
             n.SelectItem(n.ColumnRef(SEQ_COLUMN))],
            from_=n.TableRef(self.staging_table),
            where=_and(_seq_between(lo, hi),
                       n.IsNull(n.ColumnRef(rule.column),
                                negated=True)))

    def parent_values_select(self, rule: DqRule) -> n.Select:
        """DISTINCT parent-key values the child column must hit."""
        return n.Select(
            [n.SelectItem(n.ColumnRef(rule.parent_column))],
            from_=n.TableRef(rule.parent_table),
            distinct=True)


# -- unique keys: the surviving-first rule ------------------------------------

def surviving_first_losers(members, lo: int, hi: int, doomed,
                           spans=(slice(0, -1),)) -> "dict[int, int]":
    """Seqs in ``[lo, hi]`` whose key an earlier *surviving* row holds,
    in seq order, each mapped to the seq of the row holding the first
    key it loses.

    ``members`` are rows ``(key…, __SEQ)``, walked in seq order;
    ``spans`` cut a row into its unique keys (by default one key: every
    column before ``__SEQ``).  A key is held by every member below
    ``lo`` (rows that survived earlier passes) and by each member in
    range that is not ``doomed`` and loses on none of its keys — rows
    failing for another reason never reach the target, so they claim
    no key and the next clean occurrence wins.  That is what the
    target's unique constraints decide row by row.  Keys with a NULL
    part never collide.  Only rows sharing a key value with another row
    are walked: the others can neither lose nor make a row lose.
    """
    getters = [itemgetter(span) for span in spans]
    shared = []
    for get in getters:
        counts = Counter(map(get, members))
        shared.append({key for key, count in counts.items() if count > 1})
    contested = compress(members, map(any, zip(*(
        map(keys.__contains__, map(get, members))
        for get, keys in zip(getters, shared)))))
    out: "dict[int, int]" = {}
    held: dict = {}     # key -> the seq holding it
    for row in sorted(contested, key=itemgetter(-1)):
        seq = row[-1]
        if seq > hi:
            break
        keys = [(k, key) for k, key in enumerate(get(row) for get in getters)
                if not any(v is None for v in key)]
        if seq < lo:
            held.update(dict.fromkeys(keys, seq))
        elif seq not in doomed:
            winner = next((held[key] for key in keys if key in held), None)
            if winner is None:
                held.update(dict.fromkeys(keys, seq))
            else:
                out[seq] = winner
    return out


# -- the verdict pass of a failed apply INSERT --------------------------------

#: conversion function -> (its TRY form, NULL where it raises; the
#: column base type it yields).
_CONVERSIONS = {"TO_DATE": ("TRY_TO_DATE", "DATE"),
                "TO_TIMESTAMP": ("TRY_TO_TIMESTAMP", "TIMESTAMP")}
#: functions that raise on no text value (nor on NULL).
_TEXT_FUNCTIONS = ("TRIM", "LTRIM", "RTRIM", "UPPER", "LOWER")
_TEXT_BASES = ("NVARCHAR", "VARCHAR", "CHAR")


def _is_conversion(node) -> bool:
    if isinstance(node, n.FuncCall):
        return node.name.upper() in _CONVERSIONS and bool(node.args)
    return isinstance(node, n.Cast) and not node.safe


def _operand(conversion):
    if isinstance(conversion, n.FuncCall):
        return conversion.args[0]
    return conversion.operand


def _try_form(expr):
    """``expr`` with every fallible conversion replaced by its TRY form."""
    def rule(node):
        if isinstance(node, n.FuncCall) \
                and node.name.upper() in _CONVERSIONS:
            return n.FuncCall(_CONVERSIONS[node.name.upper()][0],
                              node.args)
        if isinstance(node, n.Cast) and not node.safe:
            return n.Cast(node.operand, node.type, node.format, safe=True)
        return node
    return n.transform(expr, rule)


def _fails(arg, tried):
    """Flag: the conversion's argument is non-NULL but its TRY form is."""
    return _and(n.IsNull(arg, negated=True), n.IsNull(tried))


def _evaluation_order(expr):
    """The nodes of ``expr`` in the interpreter's evaluation order:
    operands before the node that uses them, left to right."""
    for child in expr.children():
        yield from _evaluation_order(child)
    yield expr


def _text_valued(expr, text: "set[str]") -> bool:
    """Whether ``expr`` is text or NULL on every row, raising on none:
    a staging text column, a string literal, or a text function of
    one."""
    if isinstance(expr, n.ColumnRef):
        return expr.name.upper() in text
    if isinstance(expr, n.Literal):
        return expr.value is None or isinstance(expr.value, str)
    return isinstance(expr, n.FuncCall) and not expr.distinct \
        and expr.name.upper() in _TEXT_FUNCTIONS and len(expr.args) == 1 \
        and _text_valued(expr.args[0], text)


def _covered(expr, text: "set[str]") -> bool:
    """Whether ``expr`` raises, if at all, only in its conversions, each
    with constant arguments past its first: then a row's first failing
    conversion flag names the interpreter's error."""
    if isinstance(expr, (n.ColumnRef, n.Literal)):
        return True
    if _is_conversion(expr):
        rest = expr.args[1:] if isinstance(expr, n.FuncCall) else ()
        return all(isinstance(arg, n.Literal) for arg in rest) \
            and _covered(_operand(expr), text)
    return _text_valued(expr, text)


def _strict(conversion):
    """The conversion's own function of its first argument's value: it
    returns or raises as the interpreter does on that row."""
    if isinstance(conversion, n.Cast):
        return functools.partial(cast_node, conversion)
    rest = [arg.value if isinstance(arg, n.Literal) else None
            for arg in conversion.args[1:]]
    return lambda value: call_node(conversion, [value, *rest])


def _produces(expr, ctype) -> bool:
    """True when ``expr`` is a conversion to ``ctype`` itself, so the
    column's coercion of its values cannot fail."""
    if isinstance(expr, n.Cast) and expr.format is None:
        return cdw_type_from_node(expr.type) == ctype
    return isinstance(expr, n.FuncCall) \
        and expr.name.upper() in _CONVERSIONS \
        and _CONVERSIONS[expr.name.upper()][1] == ctype.base


def _type_node(ctype) -> n.TypeName:
    return n.TypeName(ctype.base, ctype.length, ctype.scale, dialect="cdw")


class ApplyLocatePass:
    """The staged rows an apply ``INSERT … SELECT`` will fail on, and
    why.

    Built from the prepared statement and the schemas of its target and
    staging tables as a list of *checks* in the engine's one-row
    evaluation order: every select-list conversion, in item order and
    operands first (flag: its argument is not NULL, its TRY form is),
    then each target column's NOT NULL or fit check in column order
    (flag: ``TRY_CAST(item AS coltype)`` is NULL where the item is not,
    or is NULL at all into a NOT NULL column).  The *verdict pass* is
    one ``SELECT`` over the range of ``__SEQ``, the index of the row's
    first failing check (a ``CASE`` over the flags) and that check's
    input value, for the rows where any flag fires; the *key pass*
    reads every unique key of the range and walks it with
    :func:`surviving_first_losers`.  Every pass is a slice of the range,
    so locating costs about one more pass over it.

    Each failing row's error is its check's own strict function applied
    to the value — :func:`~repro.cdw.expressions.cast_node`,
    :func:`~repro.cdw.expressions.call_node`,
    :meth:`~repro.cdw.table.CdwTable.coerce_value` — so code, field and
    message are the engine's by construction (:meth:`errors`).  That
    holds because the statement is *covered*: its items raise nowhere
    but in their conversions (column references, literals, text
    functions of text, conversions with constant extra arguments); a
    statement that is not gets no pass, and the error handler halves.
    Never located: keys the target already holds — finding those would
    scan the whole target on every failed range, which for a small
    batch into a large table costs more than the statement that fails
    on them.
    """

    def __init__(self, staging: n.TableRef, target, checks: list,
                 keys: "list[list]"):
        self.staging = staging
        self.target = target
        #: ``(flag, input value, strict function)`` in evaluation order.
        self.checks = checks
        #: the coerced key items of each unique key.
        self.keys = keys
        flags = [flag for flag, _, _ in checks]
        self.flag = None
        for one in flags:
            self.flag = one if self.flag is None \
                else n.BinaryOp("OR", self.flag, one)
        seq = n.ColumnRef(SEQ_COLUMN)
        self._verdict_items = [seq, n.CaseExpr([
            n.WhenClause(flag, n.Literal(k)) for k, flag in enumerate(flags)
        ]), n.CaseExpr([n.WhenClause(flag, value)
                        for flag, value, _ in checks])]
        self._key_items = [*chain.from_iterable(keys), seq]
        self._spans = []
        start = 0
        for key in keys:
            self._spans.append(slice(start, start + len(key)))
            start += len(key)

    @classmethod
    def compile(cls, statement, target, staging) -> "ApplyLocatePass | None":
        """The pass for a prepared apply statement, or None when it is
        not a covered ``INSERT … SELECT`` over one staging table
        (UPDATE, DELETE and MERGE apply by halving alone).  ``target``
        is the target table: ``name``, ``columns`` (name, ctype,
        nullable), ``unique_keys`` (column-index tuples),
        ``column_index`` and ``coerce_value``; ``staging`` is the
        staging table's schema (``columns``)."""
        if not isinstance(statement, n.Insert) \
                or not isinstance(statement.source, n.Select) \
                or not isinstance(statement.source.from_, n.TableRef) \
                or any(isinstance(item.expr, n.Star)
                       for item in statement.source.items):
            return None
        exprs = [item.expr for item in statement.source.items]
        names = statement.columns or [c.name for c in target.columns]
        text = {c.name.upper() for c in staging.columns
                if c.ctype.base in _TEXT_BASES}
        if len(names) != len(exprs) \
                or not all(_covered(expr, text) for expr in exprs):
            return None
        by_column = {target.column_index(name): expr
                     for name, expr in zip(names, exprs)}
        if any(not spec.nullable and i not in by_column
               for i, spec in enumerate(target.columns)):
            return None     # every row fails: nothing to locate
        checks = []
        for expr in exprs:
            for node in _evaluation_order(expr):
                if _is_conversion(node):
                    tried = _try_form(_operand(node))
                    checks.append((_fails(tried, _try_form(node)), tried,
                                   _strict(node)))
        coerced = {}
        for i, spec in enumerate(target.columns):
            if i not in by_column:
                continue
            expr = by_column[i]
            tried = _try_form(expr)
            coerced[i] = n.Cast(tried, _type_node(spec.ctype), safe=True)
            # NULL here, or a value the column cannot hold
            fits = _produces(expr, spec.ctype)
            if not spec.nullable:
                flag = n.IsNull(tried if fits else coerced[i])
            elif not fits:
                flag = _fails(tried, coerced[i])
            else:
                continue
            checks.append((flag, tried,
                           functools.partial(target.coerce_value, i)))
        keys = [[coerced[i] for i in key] for key in target.unique_keys
                if all(i in by_column for i in key)]
        return cls(statement.source.from_, target, checks, keys)

    def _select(self, items, where) -> n.Select:
        return n.Select([n.SelectItem(e) for e in items],
                        from_=self.staging, where=where)

    def locate(self, query, lo: int, hi: int) -> "tuple[dict, dict]":
        """``(failing, losers)`` over ``[lo, hi]``, running the verdict
        and key passes through ``query`` (``CdwEngine.query``):
        ``failing`` maps each row failing a check to ``(check index,
        input value)``, and ``losers`` map the other rows that lose a
        unique key to an earlier surviving row to that row's seq, in
        seq order."""
        failing: dict = {}
        if self.flag is not None:
            failing = {row[0]: (row[1], row[2]) for row in query(
                self._select(self._verdict_items,
                             _and(_seq_between(lo, hi), self.flag)))}
        losers: dict = {}
        if self.keys:
            members = query(self._select(self._key_items,
                                         _seq_between(lo, hi)))
            losers = surviving_first_losers(members, lo, hi, failing,
                                            self._spans)
        return failing, losers

    def errors(self, failing: dict, losers: dict
               ) -> "dict[int, BulkExecutionError] | None":
        """Each located row's own error, as the engine raises it for
        that row alone — or None when the pass cannot decide the range:
        a check's function accepts the value the pass flagged.  A
        loser's error is a uniqueness error (UV rows quote no message)
        naming in ``winner`` the seq of the row it loses to."""
        what = f"INSERT INTO {self.target.name}"
        out: "dict[int, BulkExecutionError]" = {}
        for seq, (check, value) in failing.items():
            try:
                self.checks[check][2](value)
            except ExpressionError as exc:
                out[seq] = statement_error(exc, what)
            except BulkExecutionError as exc:
                out[seq] = exc
            else:
                return None
        for seq, winner in losers.items():
            out[seq] = error = BulkExecutionError(
                f"uniqueness violation on {self.target.name}",
                kind="uniqueness")
            error.winner = winner
        return out
