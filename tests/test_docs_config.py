"""The docs name exactly what the code has: the HyperQConfig fields in
the config listings, the protocol schema in PROTOCOL.md's tables, the
metric families and the ``hyperq_jobs_total`` events in
OBSERVABILITY.md."""

import dataclasses
import json
import os
import re

from repro.core.config import HyperQConfig
from repro.core.jobs import ENDINGS
from repro.legacy import protocol
from repro.legacy.protocol import (
    REPLY_KEYS, REQUESTS, STREAM, TRANSITIONS, JobState, MessageKind,
)
from repro.obs import Observability

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
FIELDS = {f.name for f in dataclasses.fields(HyperQConfig)}


def read_doc(name):
    with open(os.path.join(DOCS, name), "r", encoding="utf-8") as handle:
        return handle.read()


def test_api_md_lists_every_config_field_and_no_other():
    bullet = re.search(r"^- \*\*`HyperQConfig`\*\*.*?(?=^- )",
                       read_doc("API.md"),
                       re.MULTILINE | re.DOTALL).group(0)
    documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", bullet))
    assert documented == FIELDS


def test_concurrency_md_table_lists_only_config_fields():
    section = read_doc("CONCURRENCY.md").split("## Configuration")[1]
    table = section.split("\n## ")[0]
    knobs = set(re.findall(r"^\| `([a-z][a-z0-9_]*)` \|", table,
                           re.MULTILINE))
    assert knobs and knobs <= FIELDS


def _protocol_tables():
    """``{kind or object name: (required, optional)}`` from every
    message table in PROTOCOL.md (a reply's keys are all "required")."""
    section = read_doc("PROTOCOL.md").split("## Message kinds")[1]
    rows = {}
    for line in section.split("\n## ")[0].splitlines():
        match = re.match(
            r"\| `(\w+)`(?: \(\d+\))? \| [CS]→[CS] \| (.*?) \|", line)
        if match:
            cell = re.sub(r"= (`[^`]*`|\w+)", "", match.group(2))
            required, _, optional = cell.partition("optional:")
            rows[match.group(1)] = tuple(
                set(re.findall(r"`([a-z_]+)`", part))
                for part in (required, optional))
    return rows


def test_protocol_md_tables_match_the_schema():
    schema = {row.name: (set(row.required), set(row.optional))
              for row in [*REQUESTS.values(), STREAM]}
    schema.update({kind.name: (set(keys), set())
                   for kind, keys in REPLY_KEYS.items()})
    assert _protocol_tables() == schema


def test_protocol_md_state_table_matches_transitions():
    """PROTOCOL.md's load-job state table is ``TRANSITIONS``: a cell is
    a state, a refusal's constant name, or *no job*."""
    section = read_doc("PROTOCOL.md").split("### Load-job states")[1]
    lines = [line for line in section.split("\n#")[0].splitlines()
             if line.startswith("| ")]
    names = {"*no job*": None, **{f"`{state.name}`": state
                                  for state in JobState}}
    for refusal in ("UNKNOWN_JOB", "AFTER_APPLY"):
        names[f"`{refusal}`"] = getattr(protocol, refusal)
    header, rows = lines[0], lines[1:]
    kinds = [MessageKind[cell.strip("` ")]
             for cell in header.split("|")[2:-1]]
    documented = {}
    for row in rows:
        state, *cells = [cell.strip() for cell in row.split("|")[1:-1]]
        documented[names[state]] = {
            kind: names[cell] for kind, cell in zip(kinds, cells)}
    assert documented == TRANSITIONS


def _emitted_job_events():
    """The ``hyperq_jobs_total`` events ``src/`` emits: each literal
    ``jobs_total.labels(event="...")``, and for ``event=outcome`` (the
    one call in ``LoadJob.end``) every outcome it takes."""
    events = set()
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as f:
                calls = re.findall(r"jobs_total\.labels\(event=([^)]*)\)",
                                   f.read())
            for arg in calls:
                if arg == "outcome":
                    events |= set(ENDINGS)
                else:
                    events.add(re.fullmatch(r'"(\w+)"', arg).group(1))
    return events


def test_observability_md_lists_every_jobs_total_event():
    row = re.search(r"^\| `hyperq_jobs_total` \|.*$",
                    read_doc("OBSERVABILITY.md"), re.MULTILINE).group(0)
    meaning = row.split("|")[4]
    assert set(re.findall(r"`([a-z]+)`", meaning)) == _emitted_job_events()


def _documented_metric_families():
    """``{family: (type, labels)}`` from OBSERVABILITY.md's catalog."""
    section = read_doc("OBSERVABILITY.md").split("## Metric catalog")[1]
    families = {}
    for match in re.finditer(r"^\| `([a-z0-9_]+)` \| (\w+) \| ([^|]*) \|",
                             section.split("\n## ")[0], re.MULTILINE):
        labels = frozenset(re.findall(r"`(\w+)`", match.group(3)))
        families[match.group(1)] = (match.group(2), labels)
    return families


def test_observability_md_catalogs_every_metric_family():
    """Both ways: every family a node registers (the SLO gauges under
    an SLO profile) has a catalog row with its type and labels, and
    every row names a registered family."""
    with open(os.path.join(EXAMPLES, "slo_profile.json"),
              encoding="utf-8") as handle:
        profile = json.load(handle)
    registered = {}
    for config in (HyperQConfig(), HyperQConfig(slo_profile=profile)):
        registry = Observability.from_config(config).registry
        for name, family in registry._families.items():
            registered[name] = (family.kind, frozenset(family.labelnames))
    assert _documented_metric_families() == registered
