"""The docs' HyperQConfig listings must name exactly the real fields."""

import dataclasses
import os
import re

from repro.core.config import HyperQConfig

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")
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
