"""Judge run B against run A by the bounds in ``BENCHMARK.json``.

``python benchmarks/e2e/compare.py A B`` where A and B are each a file
written by ``run.py --out`` or a directory of such files (a set of runs
of one commit).  One row per (workload, end-to-end metric) with both
medians, the ratio B/A and A as its base.  Verdicts:

``ok``          B is no worse than A by more than the metric's bound.
``REGRESSION``  B is worse than A by more than the bound.
``unresolved``  A's own spread exceeds the bound, so the pair cannot be
                called unchanged — unless every run of B beats every
                run of A, which reads ``ok``.

A's spread is the quartile distance across its runs as a share of their
median when A is a set of four or more files; for fewer files it is the
in-run quartile spread of the per-unit walls (CPU for the CPU metric).
Failed operations in B beyond A's are a regression whatever the timing.
Exit status is 1 on any regression, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from run import load_spec

#: which in-run sample's quartile spread stands in for a metric's
#: run-to-run spread when a side has too few runs to measure it.
_IN_RUN_SPREAD = {
    "rows_per_s": "unit_wall_s", "batch_s_p50": "unit_wall_s",
    "batch_s_p95": "unit_wall_s", "cpu_s_per_mrow": "unit_cpu_s",
}


def load_runs(path: str) -> list[dict]:
    """The run file at ``path``, or every ``*.json`` run in a directory."""
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    runs = []
    for each in paths:
        with open(each, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"compare.py: no run files at {path}")
    return runs


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["end_to_end"][metric]["value"]
            for run in runs
            if metric in run["workloads"].get(workload, {})
            .get("end_to_end", {})]


def spread_pct(runs: list[dict], workload: str, metric: str) -> float:
    """Run-to-run spread of a metric on one side, in percent."""
    sample = values(runs, workload, metric)
    if len(sample) >= 4:
        q1, q2, q3 = statistics.quantiles(sample, n=4)
        return 100.0 * (q3 - q1) / q2
    source = _IN_RUN_SPREAD.get(metric)
    if source is None:
        return 0.0
    return max(run["workloads"][workload]["end_to_end_diagnostics"]
               [source]["iqr_pct"] for run in runs)


def failed_pct(runs: list[dict], workload: str) -> float:
    attempted = sum(r["workloads"][workload]["attempted"] for r in runs)
    failed = sum(r["workloads"][workload]["failed"] for r in runs)
    return 100.0 * failed / attempted


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = load_spec()
    side_a, side_b = load_runs(argv[1]), load_runs(argv[2])
    print(f"{'workload':<12} {'metric':<15} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'A spread':>9}  verdict")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in run["workloads"]
                   for run in side_a + side_b):
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = values(side_a, workload, name)
            b = values(side_b, workload, name)
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            ratio = new / base
            worse = (1 / ratio if metric["better"] == "higher"
                     else ratio) - 1.0
            spread = spread_pct(side_a, workload, name)
            if metric["better"] == "higher":
                all_better = min(b) > max(a)
            else:
                all_better = max(b) < min(a)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > 100.0 * bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<12} {name:<15} {base:>12.6g} {new:>12.6g} "
                  f"{ratio:>7.3f} {bound:>6.2f} {spread:>8.1f}%  "
                  f"{verdict} (base {base:.6g} {metric['unit']})")
        fa, fb = failed_pct(side_a, workload), failed_pct(side_b, workload)
        verdict = "ok"
        if fb > fa:
            verdict = "REGRESSION"
            regressions += 1
        print(f"{workload:<12} {'failed_ops_pct':<15} {fa:>12.6g} "
              f"{fb:>12.6g} {'':>7} {'0':>6} {'':>9}  {verdict} "
              f"(base {fa:.6g} %)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
