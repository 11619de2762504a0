"""Data-quality profiles: named rulesets matched to jobs by glob.

The JSON shape follows the ``wlm_profile``/``slo_profile`` pattern
(see ``examples/dq_profile.json``):

.. code-block:: json

    {"rulesets": [
        {"name": "customer-loads",
         "match": {"target": "PROD.*", "pool": "etl"},
         "rules": [
             {"rule_id": "rec_id_required", "kind": "not_null",
              "column": "REC_ID"}
         ]}
    ]}

A bare list of rules is also accepted and becomes one ruleset that
matches every job.  ``match`` patterns are ``fnmatch`` globs over the
job's target table and its WLM pool (resolved by the workload
classifier); an absent pattern — or an empty ``match`` — claims
everything.  Like WLM pool classification, resolution is
first-match-wins in declaration order.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.dq.rules import DqRule

__all__ = ["DqProfile", "DqRuleSet", "MATCH_KEYS"]

#: job attributes a ruleset may match on.
MATCH_KEYS = ("target", "pool")


@dataclass(frozen=True)
class DqRuleSet:
    """An ordered rule list plus the glob patterns that select it."""

    name: str
    rules: tuple[DqRule, ...] = ()
    match: dict = field(default_factory=dict)

    def __post_init__(self):
        """Validate the ruleset name, match keys, and rule-id uniqueness."""
        if not self.name or not str(self.name).strip():
            raise ValueError("dq ruleset needs a non-empty name")
        unknown = set(self.match) - set(MATCH_KEYS)
        if unknown:
            raise ValueError(
                f"dq ruleset {self.name}: unknown match keys: "
                f"{', '.join(sorted(unknown))} "
                f"(known: {', '.join(MATCH_KEYS)})")
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise ValueError(
                    f"dq ruleset {self.name}: duplicate rule_id "
                    f"{rule.rule_id!r}")
            seen.add(rule.rule_id)

    def matches(self, attrs: dict) -> bool:
        """True when every configured glob matches its attribute."""
        return all(
            fnmatchcase(str(attrs.get(key) or ""), str(pattern))
            for key, pattern in self.match.items())

    @classmethod
    def from_dict(cls, payload: dict) -> "DqRuleSet":
        if not isinstance(payload, dict):
            raise ValueError(f"dq ruleset must be an object, got "
                             f"{type(payload).__name__}")
        unknown = set(payload) - {"name", "match", "rules"}
        if unknown:
            raise ValueError(
                f"unknown dq-ruleset keys: {', '.join(sorted(unknown))}")
        return cls(
            name=payload.get("name", ""),
            match=dict(payload.get("match", {})),
            rules=tuple(DqRule.from_dict(r)
                        for r in payload.get("rules", [])))


@dataclass(frozen=True)
class DqProfile:
    """Every configured ruleset, in declaration order, and its totals."""

    rulesets: tuple[DqRuleSet, ...] = ()
    #: the last 64 per-job precheck summaries; running totals.
    _jobs: list = field(default_factory=list, init=False, repr=False,
                        compare=False)
    _totals: Counter = field(default_factory=Counter, init=False,
                             repr=False, compare=False)
    _violations: Counter = field(default_factory=Counter, init=False,
                                 repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    @property
    def enabled(self) -> bool:
        return bool(self.rulesets)

    @classmethod
    def from_profile(cls, payload) -> "DqProfile":
        """Build from parsed ``dq_profile`` JSON (dict, list, or None)."""
        if payload is None:
            return cls(())
        if isinstance(payload, list):
            # bare rule list: one anonymous catch-all ruleset
            return cls((DqRuleSet(
                name="default",
                rules=tuple(DqRule.from_dict(r) for r in payload)),))
        if not isinstance(payload, dict):
            raise ValueError(
                f"dq_profile must be an object or a rule list, got "
                f"{type(payload).__name__}")
        unknown = set(payload) - {"rulesets", "rules"}
        if unknown:
            raise ValueError(
                f"unknown dq-profile keys: {', '.join(sorted(unknown))}")
        rulesets = [DqRuleSet.from_dict(r)
                    for r in payload.get("rulesets", [])]
        if payload.get("rules"):
            rulesets.append(DqRuleSet(
                name="default",
                rules=tuple(DqRule.from_dict(r)
                            for r in payload["rules"])))
        return cls(tuple(rulesets))

    def resolve(self, *, target: str = "",
                pool: str = "") -> "DqRuleSet | None":
        """First ruleset whose globs claim this job, or None.

        Mirrors WLM pool classification: declaration order wins, and a
        matching ruleset with zero rules still wins (an explicit way to
        exempt a job class from a later catch-all).
        """
        attrs = {"target": target, "pool": pool}
        for ruleset in self.rulesets:
            if ruleset.matches(attrs):
                return ruleset if ruleset.rules else None
        return None

    def note(self, summary: dict) -> None:
        """Fold one finished job's precheck summary (its ``job_id`` and
        ``target`` included) into the totals."""
        with self._lock:
            self._totals.update(jobs_checked=1, checked=summary["checked"],
                                routed_rows=summary["routed_rows"])
            self._violations.update(summary["violations"])
            self._jobs.append(summary)
            del self._jobs[:-64]

    def snapshot(self) -> dict:
        """``stats()["dq"]``: profile shape, totals and recent jobs
        (consumed by the qinsight top-violated-rules report)."""
        with self._lock:
            return {"enabled": self.enabled,
                    "rulesets": [rs.name for rs in self.rulesets],
                    **{key: self._totals[key] for key in (
                        "jobs_checked", "checked", "routed_rows")},
                    "violations": dict(self._violations),
                    "jobs": [dict(j) for j in self._jobs]}
