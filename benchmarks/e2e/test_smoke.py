"""Smoke test of the benchmark itself (``--quick``: 1/10 size, no claims).

Not part of the tier-1 suite; run it with
``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_quick_run_reports_every_metric_and_no_failures(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seed", "5", "--out", str(out),
         "--trace-out", str(tmp_path / "spans")],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    run = json.loads(out.read_text())
    assert run["quick"] is True and run["seed"] == 5
    for key in ("commit", "dirty", "python", "platform", "nproc",
                "config_sha1", "wall_s"):
        assert key in run
    for workload in (w["name"] for w in spec["workloads"]):
        entry = run["workloads"][workload]
        assert entry["failed"] == 0 and entry["attempted"] >= 5
        assert entry["end_to_end_diagnostics"]["failed_ops_pct"] == 0
        assert "host.noise_pct" in entry and "sizes" in entry
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                value = entry[section][metric["name"]]
                assert value["unit"] == metric["unit"]
                assert isinstance(value["value"], (int, float))
        for metric in spec["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0
        assert entry["per_layer_diagnostics"]["missing_hooks"] == []
        assert (tmp_path / "spans" / f"{workload}.spans.jsonl").exists()

    layers = {w: run["workloads"][w]["per_layer"]
              for w in run["workloads"]}
    # Each layer works where predicted and is bypassed where predicted.
    assert layers["bulk_load"]["core.converter.chunks"]["value"] > 0
    assert layers["export_scan"]["core.converter.chunks"]["value"] == 0
    assert layers["export_scan"]["core.tdfcursor.packets"]["value"] > 0
    assert layers["bulk_load"]["core.tdfcursor.packets"]["value"] == 0
    assert layers["dirty_load"]["core.errorhandling.splits"]["value"] > 0
    assert layers["bulk_load"]["core.errorhandling.splits"]["value"] == 0
    assert layers["stream_feed"][
        "resilience.checkpoint.compactions"]["value"] > 0
    for workload, metrics in layers.items():
        phases = sum(v["value"] for k, v in metrics.items()
                     if k.startswith("phase."))
        wall = run["workloads"][workload]["per_layer_diagnostics"][
            "traced_unit_wall_s"]["mean"]
        assert abs(phases - wall) / wall < 0.02
