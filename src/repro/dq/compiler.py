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
conjunct, so the engine's zone-map pruning (PR 5) turns each pass
into a binary-searched slice scan rather than a full staging scan.
"""

from __future__ import annotations

from repro.dq.rules import PER_ROW_KINDS, SET_KINDS, DqRule
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_statement

__all__ = ["CompiledRuleSet", "violation_flag", "et_insert",
           "staging_delete", "SEQ_COLUMN"]

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
