"""repro.dq — declarative data quality, compiled to set-oriented SQL.

The subsystem turns a JSON rule profile into two SQL passes run ahead
of the application phase (the ``dq.precheck``):

- :mod:`repro.dq.rules`    — the rule model (`not_null`, `range`,
  `regex`, `in_set`, `unique`, `referential`, raw `sql` predicates);
- :mod:`repro.dq.profile`  — profile loader + glob matching of
  rulesets to jobs (``HyperQConfig.dq_profile`` / ``--dq-profile``),
  resolved against the target table and the job's WLM pool;
- :mod:`repro.dq.compiler` — renders all per-row rules into one
  aggregated ``SELECT SUM(CASE WHEN …)`` pass plus per-rule routing
  selects, all ``__SEQ``-range-prunable;
- :mod:`repro.dq.precheck` — runs the passes, routes violators to the
  job's error table (``__RULE_ID``/``__REASON`` provenance), deletes
  them from staging, and journals the routed seqs for exactly-once
  resume.

The pure-Python per-row reference the differential tests check the
passes against lives with them, in ``tests/dq/oracle.py``.

See ``docs/DQ.md`` for the rule reference and the precheck lifecycle.
"""

from repro.dq.compiler import CompiledRuleSet, violation_flag
from repro.dq.precheck import DqPrechecker, DqRangeResult
from repro.dq.profile import DqProfile, DqRuleSet
from repro.dq.rules import PER_ROW_KINDS, RULE_KINDS, SET_KINDS, DqRule

__all__ = [
    "DqRule", "DqRuleSet", "DqProfile",
    "CompiledRuleSet", "violation_flag",
    "DqPrechecker", "DqRangeResult",
    "RULE_KINDS", "PER_ROW_KINDS", "SET_KINDS",
]
