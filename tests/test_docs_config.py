"""docs/API.md's HyperQConfig bullet must list exactly the real fields."""

import dataclasses
import os
import re

from repro.core.config import HyperQConfig

API_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")


def test_api_md_lists_every_config_field_and_no_other():
    with open(API_MD, "r", encoding="utf-8") as handle:
        text = handle.read()
    bullet = re.search(r"^- \*\*`HyperQConfig`\*\*.*?(?=^- )", text,
                       re.MULTILINE | re.DOTALL).group(0)
    documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", bullet))
    assert documented == {
        f.name for f in dataclasses.fields(HyperQConfig)}
