"""Compile a ruleset into set-oriented SQL over the staging table.

The per-row kinds (``not_null``, ``range``, ``regex``, ``in_set``,
``sql``) all reduce to one aggregated pass in the style of Kontra's
``SqlExecutor.compile``::

    SELECT COUNT(*) AS TOTAL,
           SUM(CASE WHEN … THEN 1 ELSE 0 END) AS C0,
           SUM(CASE WHEN … THEN 1 ELSE 0 END) AS C1, …
      FROM HQ_STG_j1
     WHERE __SEQ BETWEEN :lo AND :hi

returning ``{rule_id: failed_count}`` in a single row, plus one
routing ``SELECT __SEQ`` per *violated* rule.  Every CASE yields a
0/1 *violation flag* — never NULL — so SQL three-valued logic cannot
leak violations past ``SUM``.  The cross-row kinds (``unique``,
``referential``) compile to grouping / set-difference passes instead.

All range-scoped statements carry a non-negated ``__SEQ BETWEEN``
conjunct, so the engine's zone-map pruning turns each pass into a
binary-searched slice scan rather than a full staging scan.

:class:`ApplyLocatePass` applies the same idea to the apply DML itself:
from a prepared ``INSERT … SELECT`` and its target's schema it derives
the rows the statement will fail on — failed conversions, values the
target column cannot hold, NULLs into NOT NULL columns, lost unique
keys within the range — as one flags pass plus one key pass per unique
key, so the adaptive error handler can apply a failed range around them
instead of halving it.
"""

from __future__ import annotations

from repro.cdw.types import cdw_type_from_node
from repro.dq.rules import PER_ROW_KINDS, SET_KINDS, DqRule
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

    def counts_select(self, lo: int, hi: int) -> n.Select:
        """The single aggregated violation-count pass for the range."""
        items = [n.SelectItem(n.FuncCall("COUNT", [n.Star()]),
                              alias="TOTAL")]
        for i, rule in enumerate(self.per_row_rules):
            items.append(n.SelectItem(
                n.FuncCall("SUM", [self._flags[rule.rule_id]]),
                alias=f"C{i}"))
        return n.Select(items, from_=n.TableRef(self.staging_table),
                        where=_seq_between(lo, hi))

    def routing_flags_select(self, rules: "tuple[DqRule, ...]",
                             lo: int, hi: int) -> n.Select:
        """``(__SEQ, flag…)`` of rows violating any given per-row rule.

        One scan routes every violated per-row rule in the range — the
        WHERE keeps clean rows out of the result, the flag columns say
        which of the rules each surviving row broke.
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

    def _key_not_null(self, rule: DqRule):
        return [n.IsNull(n.ColumnRef(c), negated=True)
                for c in rule.key_columns]

    def unique_keys_select(self, rule: DqRule) -> n.Select:
        """(key…, __SEQ) of every keyed row in the staging table.

        Scans the whole table on purpose: the surviving-first-
        occurrence cascade must hold *globally*, so a duplicate always
        sees the earlier winner here, whatever range is checked.
        """
        items = [n.SelectItem(n.ColumnRef(c))
                 for c in rule.key_columns]
        items.append(n.SelectItem(n.ColumnRef(SEQ_COLUMN)))
        return n.Select(
            items, from_=n.TableRef(self.staging_table),
            where=_and(*self._key_not_null(rule)))

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

def surviving_first_losers(members, lo: int, hi: int,
                           doomed) -> "list[int]":
    """Seqs in ``[lo, hi]`` whose key an earlier *surviving* row holds.

    ``members`` are ``(key…, __SEQ)`` rows, walked in seq order.  A key
    is held by every member below ``lo`` (rows that survived earlier
    passes) and by the first member in range that is not ``doomed`` —
    rows failing for another reason never reach the target, so they
    claim no key and the next clean occurrence wins.  That is what the
    target's unique constraint decides row by row.  Keys with a NULL
    part never collide.
    """
    out: "list[int]" = []
    held: set = set()
    for row in sorted(members, key=lambda r: r[-1]):
        key, seq = row[:-1], row[-1]
        if seq > hi:
            break
        if any(v is None for v in key):
            continue
        if seq < lo:
            held.add(key)
        elif seq not in doomed:
            if key in held:
                out.append(seq)
            else:
                held.add(key)
    return out


# -- located apply -------------------------------------------------------------

#: conversion function -> (its TRY form, NULL where it raises; the
#: column base type it yields).
_CONVERSIONS = {"TO_DATE": ("TRY_TO_DATE", "DATE"),
                "TO_TIMESTAMP": ("TRY_TO_TIMESTAMP", "TIMESTAMP")}


def _try_form(expr):
    """``expr`` with every fallible conversion replaced by its TRY form."""
    def rule(node):
        if isinstance(node, n.FuncCall) and node.name in _CONVERSIONS:
            return n.FuncCall(_CONVERSIONS[node.name][0], node.args)
        if isinstance(node, n.Cast) and not node.safe:
            return n.Cast(node.operand, node.type, node.format, safe=True)
        return node
    return n.transform(expr, rule)


def _fails(arg, tried):
    """Flag: the conversion's argument is non-NULL but its TRY form is."""
    return _and(n.IsNull(arg, negated=True), n.IsNull(tried))


def _conversion_flags(expr) -> list:
    """One flag per conversion node inside ``expr``.

    Arguments are evaluated in TRY form too: where a nested conversion
    fails the outer flag reads 0, and the nested node's own flag fires.
    """
    flags = []
    for node in n.walk(expr):
        if isinstance(node, n.FuncCall) and node.name in _CONVERSIONS \
                and node.args:
            flags.append(_fails(_try_form(node.args[0]), _try_form(node)))
        elif isinstance(node, n.Cast) and not node.safe:
            flags.append(_fails(_try_form(node.operand), _try_form(node)))
    return flags


def _produces(expr, ctype) -> bool:
    """True when ``expr`` is a conversion to ``ctype`` itself, so the
    column's coercion of its values cannot fail."""
    if isinstance(expr, n.Cast) and expr.format is None:
        return cdw_type_from_node(expr.type) == ctype
    return isinstance(expr, n.FuncCall) and expr.name in _CONVERSIONS \
        and _CONVERSIONS[expr.name][1] == ctype.base


def _type_node(ctype) -> n.TypeName:
    return n.TypeName(ctype.base, ctype.length, ctype.scale, dialect="cdw")


class ApplyLocatePass:
    """The staged rows an apply ``INSERT … SELECT`` will fail on.

    Built from the prepared statement and the target's schema: a flag
    for every conversion in the select list, for every value its target
    column cannot hold (``TRY_CAST(item AS coltype)``) and for every
    NULL into a NOT NULL column, ORed into one ``SELECT __SEQ`` pass;
    then one key pass per unique key over the range, walked with
    :func:`surviving_first_losers`.  Every pass is a slice of the failed
    range, so locating costs about one more pass over it.

    The result is a hint: the error handler gets each row's verdict
    from the engine itself.  Not flagged, so found by halving: other
    fallible expressions (string functions on non-strings, arithmetic)
    and keys the target already holds — finding those would scan the
    whole target on every failed range, which for a small batch into a
    large table costs more than the halving it saves.
    """

    def __init__(self, staging: n.TableRef, flag, keys: "list[list]"):
        self.staging = staging
        self.flag = flag
        #: the coerced key items of each unique key.
        self.keys = keys

    @classmethod
    def compile(cls, statement, target) -> "ApplyLocatePass | None":
        """The pass for a prepared apply statement, or None when it is
        not an ``INSERT … SELECT`` over one staging table (UPDATE,
        DELETE and MERGE apply by halving alone).  ``target`` is the
        target table's schema: ``columns`` (name, ctype, nullable),
        ``unique_keys`` (column-index tuples) and ``column_index``."""
        if not isinstance(statement, n.Insert) \
                or not isinstance(statement.source, n.Select) \
                or not isinstance(statement.source.from_, n.TableRef) \
                or any(isinstance(item.expr, n.Star)
                       for item in statement.source.items):
            return None
        exprs = [item.expr for item in statement.source.items]
        names = statement.columns or [c.name for c in target.columns]
        if len(names) != len(exprs):
            return None
        by_column = {target.column_index(name): expr
                     for name, expr in zip(names, exprs)}
        if any(not spec.nullable and i not in by_column
               for i, spec in enumerate(target.columns)):
            return None     # every row fails: nothing to locate
        flags = []
        coerced = {}
        for i, expr in by_column.items():
            spec = target.columns[i]
            flags.extend(_conversion_flags(expr))
            tried = _try_form(expr)
            coerced[i] = n.Cast(tried, _type_node(spec.ctype), safe=True)
            # NULL here, or a value the column cannot hold
            fits = _produces(expr, spec.ctype)
            if not spec.nullable:
                flags.append(n.IsNull(tried if fits else coerced[i]))
            elif not fits:
                flags.append(_fails(tried, coerced[i]))
        flag = None
        for one in flags:
            flag = one if flag is None else n.BinaryOp("OR", flag, one)
        keys = [[coerced[i] for i in key] for key in target.unique_keys
                if all(i in by_column for i in key)]
        return cls(statement.source.from_, flag, keys)

    def _select(self, items, where) -> n.Select:
        return n.Select([n.SelectItem(e) for e in items],
                        from_=self.staging, where=where)

    def suspects(self, query, lo: int, hi: int) -> "list[int]":
        """Sorted seqs in ``[lo, hi]`` expected to fail, running each
        pass through ``query`` (``CdwEngine.query``)."""
        seq = n.ColumnRef(SEQ_COLUMN)
        doomed: "set[int]" = set()
        if self.flag is not None:
            doomed.update(row[0] for row in query(self._select(
                [seq], _and(_seq_between(lo, hi), self.flag))))
        for items in self.keys:
            members = query(self._select(
                items + [seq], _seq_between(lo, hi)))
            doomed.update(surviving_first_losers(members, lo, hi, doomed))
        return sorted(doomed)
