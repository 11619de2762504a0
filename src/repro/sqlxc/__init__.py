"""SQL cross compiler (the miniature of Hyper-Q's algebraic framework).

Hyper-Q "maps incoming SQL queries to a system-agnostic abstraction and
applies the necessary transformations to make the query executable on the
new system" (Section 1).  This package implements that pipeline from
scratch:

1. :mod:`repro.sqlxc.lexer` / :mod:`repro.sqlxc.parser` — parse SQL written
   in either the *legacy* dialect (host ``:params``, ``CAST .. FORMAT``,
   ``UPDATE .. ELSE INSERT`` upserts, legacy type and function names) or
   the *cdw* dialect into one shared AST;
2. :mod:`repro.sqlxc.nodes` — the dialect-agnostic AST;
3. :mod:`repro.sqlxc.rewrites` — legacy→CDW transformation rules (FORMAT
   casts to ``TO_DATE``, type mapping, function mapping, upsert→MERGE,
   host-variable to staging-column substitution);
4. :mod:`repro.sqlxc.render` — dialect-specific SQL renderers.

``transpile`` is the one-call entry point used by Hyper-Q's PXC process.
"""

from repro.sqlxc.lexer import tokenize
from repro.sqlxc.parser import parse_statement, parse_expression
from repro.sqlxc.render import render
from repro.sqlxc.rewrites import (
    to_cdw, bind_params_to_columns, bind_params_to_values, fresh_name,
    map_type,
)
from repro.sqlxc import nodes

__all__ = [
    "tokenize", "parse_statement", "parse_expression", "render",
    "to_cdw", "bind_params_to_columns", "bind_params_to_values",
    "fresh_name", "map_type", "transpile", "nodes",
]


def transpile(sql: str, from_dialect: str = "legacy",
              to_dialect: str = "cdw") -> str:
    """Parse ``sql`` in one dialect and render it in another."""
    statement = parse_statement(sql, dialect=from_dialect)
    if from_dialect == "legacy" and to_dialect == "cdw":
        statement = to_cdw(statement)
    return render(statement, dialect=to_dialect)
