"""The docs name exactly what the code has: the HyperQConfig fields in
the config listings, the protocol schema in PROTOCOL.md's tables, the
``hyperq_jobs_total`` events in OBSERVABILITY.md."""

import dataclasses
import os
import re

from repro.core.config import HyperQConfig
from repro.core.jobs import ENDINGS
from repro.legacy.protocol import REPLY_KEYS, REQUESTS, STREAM

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")
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
