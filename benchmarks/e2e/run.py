"""The repository's benchmark: four workloads against a default gateway.

Two ways in, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement in this process.  ``--trace 0`` times untraced units
    for S seconds and prints the end-to-end metrics, timings scaled to
    the host's reference speed; ``--trace 1`` runs the short traced pass
    and prints the per-layer metrics.  The last line of stdout is the
    result object ``BENCHMARK.json`` describes.

``run.py --seed N --out PATH [--workload W] [--quick] [--trace-out DIR]``
    Every workload, each in fresh subprocesses of the form above (one
    untraced, one traced), gathered under one envelope in PATH and
    printed as ``workload metric value unit`` lines.

Metric names, units and bounds are read from ``BENCHMARK.json``; see
``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 5
#: the timed loop probes the host's speed between units this often.
PROBE_EVERY_S = 0.1
#: what :func:`probe_s` reads on the reference host in its usual phase.
#: Timings are scaled by this over the run's own median reading, so on
#: that host they are real seconds and elsewhere one constant factor off.
REFERENCE_PROBE_S = 1.25e-3
_PROBE_RECORD = "R0000042|name-01234|2014-03-09|" + "x" * 160
#: a p95 needs ten samples beyond it; fewer units than this support no
#: percentile above the median (see README, ``batch_s_p95``).
TAIL_UNITS = 200
TRACE_PAIRS = 3
NOISY_PCT = 10.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- small measurements -------------------------------------------------------

def process_age_s() -> float:
    """Seconds since this interpreter was exec'd (0 where /proc is absent)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def probe_s() -> float:
    """Median time of a fixed pure-Python kernel: how fast the host is now.

    The kernel splits, joins, encodes and hashes one record the way the
    codecs do, allocating only short-lived objects, so what the process
    did to its heap in between does not show up as host speed.
    """
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(1500):
            fields = _PROBE_RECORD.split("|")
            len(",".join(fields).encode())
            {field: i for i, field in enumerate(tuple(fields))}
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and count of a sample, for print beside a timing."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "mean": statistics.mean(values),
            "iqr_pct": 100.0 * (q3 - q1) / q2 if q2 else 0.0}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- one measurement, in this process -----------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(workload, seconds: float, quick: bool, startup_s: float):
    """Untraced: repeated set-up, then units until ``seconds`` are up."""
    setups = []
    setup_probes = [probe_s()]
    for repeat in range(1 if quick else SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        setup_probes.append(probe_s())
        if repeat == 0:
            rss_mb = peak_rss_mb()
    # Checked like any unit but not timed: they carry a feed past its
    # ramp (README, "What the first runs show").
    ramp = [workload.run_unit() for _ in range(workload.ramp_units)]
    children0 = children_cpu_s()
    units = []
    probes = []
    probing = 0.0
    start = last_probe = time.perf_counter()
    while True:
        if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
            began = time.perf_counter()
            probes.append(probe_s())
            last_probe = time.perf_counter()
            probing += last_probe - began
        units.append(workload.run_unit())
        if len(units) == workload.rss_units:
            # A fixed point of the feed: its table grows with every
            # batch, so the peak at the end would measure how far this
            # host got in ``seconds``.
            rss_mb = peak_rss_mb()
        if (len(units) >= workload.min_units
                and time.perf_counter() - start - probing >= seconds):
            break
    elapsed = time.perf_counter() - start - probing
    finished = workload.finish()
    children = children_cpu_s() - children0
    workload.teardown()

    good = [u for u in units if u.ok]
    attempted = len(ramp) + len(units)
    failed = (sum(not u.ok for u in ramp) + len(units) - len(good)
              + (0 if finished else 1))
    if not good:
        return {}, {}, attempted, failed
    walls = [u.wall_s for u in good]
    cpus = [u.cpu_s for u in good]
    rows = sum(u.rows for u in good)
    if workload.one_feed:
        # Rows over the closed loop's own elapsed time.
        rate = rows / elapsed
    else:
        rate = good[0].rows / statistics.median(walls)
    raw = {
        "rows_per_s": rate,
        "batch_s_p50": statistics.median(walls),
        "batch_s_p95": percentile(walls, 95 if len(walls) >= TAIL_UNITS
                                  else 50),
        # Median unit, not the total: a slow spell of the host then
        # moves this no more than it moves the median wall.
        "cpu_s_per_mrow": (statistics.median(cpus) / good[0].rows
                           + children / rows) * 1e6,
        "setup_s": startup_s + statistics.median(setups),
    }
    # The host runs whole phases 15-50 % slow or 25 % fast (README,
    # "Timings are scaled to the host's reference speed"), and the probe
    # ran in them too.
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    setup_speed = REFERENCE_PROBE_S / statistics.median(setup_probes)
    metrics = {
        "rows_per_s": raw["rows_per_s"] / speed,
        "batch_s_p50": raw["batch_s_p50"] * speed,
        "batch_s_p95": raw["batch_s_p95"] * speed,
        "cpu_s_per_mrow": raw["cpu_s_per_mrow"] * speed,
        "peak_rss_mb": rss_mb,
        "setup_s": raw["setup_s"] * setup_speed,
    }
    diagnostics = {
        "raw": raw,
        "host.speed": speed,
        "host.setup_speed": setup_speed,
        "host.probe_s": quartiles(probes),
        "unit_wall_s": quartiles(walls),
        "unit_cpu_s": quartiles(cpus),
        "unit_wall_p99_s": percentile(walls, 99),
        "unit_wall_max_s": max(walls),
        "timed_section_s": elapsed,
        "setup_samples_s": setups,
        "startup_s": startup_s,
        "failed_ops_pct": 100.0 * failed / attempted,
    }
    return metrics, diagnostics, attempted, failed


def traced_pass(workload, quick: bool, trace_out: str | None):
    """Alternate untraced and traced blocks of units; build the ledger."""
    import drives
    import tracing

    workload.setup()
    ramp = [workload.run_unit() for _ in range(workload.ramp_units)]
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    attempted = len(ramp)
    failed = sum(not u.ok for u in ramp)
    job = 0
    probes = []
    for _ in range(2 if quick else TRACE_PAIRS):
        for traced in (False, True):
            probes.append(probe_s())
            if traced:
                tracer.install()
            try:
                for _ in range(workload.trace_block):
                    if traced:
                        tracer.job = job = job + 1
                    unit = workload.run_unit()
                    tracer.job = -1
                    attempted += 1
                    failed += not unit.ok
                    walls[traced].append(unit.wall_s)
            finally:
                tracer.uninstall()
    probes.append(probe_s())
    if not workload.finish():
        failed += 1
    layout, data = workload.kernel_data()
    workload.teardown()

    metrics = tracing.ledger(tracer.spans, walls[True], walls[False])
    metrics.update(drives.run(layout, data))
    if trace_out:
        os.makedirs(trace_out, exist_ok=True)
        tracer.write_jsonl(
            os.path.join(trace_out, f"{workload.name}.spans.jsonl"))
    diagnostics = {
        "traced_units": len(walls[True]),
        "traced_unit_wall_s": quartiles(walls[True]),
        "untraced_unit_wall_s": quartiles(walls[False]),
        "missing_hooks": tracer.missing,
        "host.probe_s": quartiles(probes),
    }
    return metrics, diagnostics, attempted, failed


def run_one(args, spec: dict) -> int:
    """Contract mode: measure one workload here and print the result."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        import workloads
        from repro.core.config import HyperQConfig

        startup_s = process_age_s()
        workload = workloads.make(args.workload, args.seed, args.quick)
        if args.trace:
            wanted = spec["per_layer"]
            metrics, diagnostics, attempted, failed = traced_pass(
                workload, args.quick, args.trace_out)
        else:
            wanted = spec["end_to_end"]
            metrics, diagnostics, attempted, failed = timed_pass(
                workload, args.seconds, args.quick, startup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    if not metrics:
        print(f"run.py: every {args.workload} operation failed",
              file=sys.stderr)
        return 1
    diagnostics["host.noise_pct"] = diagnostics["host.probe_s"]["iqr_pct"]
    diagnostics["config_sha1"] = hashlib.sha1(
        repr(HyperQConfig()).encode()).hexdigest()
    diagnostics["sizes"] = workload.sizes

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    for name, entry in result["metrics"].items():
        print(args.workload, name, f"{entry['value']:.6g}", entry["unit"])
    print("#", json.dumps(diagnostics))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- every workload, under one envelope ---------------------------------------

def _git(*command: str) -> str | None:
    try:
        done = subprocess.run(("git",) + command, cwd=ROOT, text=True,
                              capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_all(args, spec: dict) -> int:
    """Orchestrator: one untraced and one traced subprocess per workload."""
    started = time.time()
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    status = _git("status", "--porcelain")
    out = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "workloads": {},
    }
    exit_code = 0
    for name in names:
        entry = out["workloads"][name] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            if args.trace_out and trace:
                command += ["--trace-out", args.trace_out]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode:
                exit_code = 1
            # A measurement ends with its diagnostics ("# {...}") and
            # its result object; one that died early printed neither.
            lines = done.stdout.splitlines()
            if len(lines) < 2 or not lines[-2].startswith("# {"):
                print(name, section, "produced no result")
                continue
            result, notes = json.loads(lines[-1]), json.loads(lines[-2][2:])
            entry[section] = result["metrics"]
            entry[f"{section}_diagnostics"] = notes
            entry.setdefault("sizes", notes["sizes"])
            out.setdefault("config_sha1", notes["config_sha1"])
            if trace:
                continue
            entry["attempted"] = result["attempted"]
            entry["failed"] = result["failed"]
            entry["host.noise_pct"] = notes["host.noise_pct"]
            entry["noisy"] = notes["host.noise_pct"] > NOISY_PCT
    out["wall_s"] = time.time() - started

    for name, entry in out["workloads"].items():
        notes = entry.get("end_to_end_diagnostics")
        if notes:
            wall = notes["unit_wall_s"]
            print(f"{name}: {wall['n']} units, wall q1/median/q3 "
                  f"{wall['q1']:.4f}/{wall['median']:.4f}/{wall['q3']:.4f} s,"
                  f" p99 {notes['unit_wall_p99_s']:.4f} s,"
                  f" max {notes['unit_wall_max_s']:.4f} s,"
                  f" failed_ops_pct {notes['failed_ops_pct']:.3g} %,"
                  f" host.speed {notes['host.speed']:.3f},"
                  f" host.noise_pct {entry['host.noise_pct']:.1f} %"
                  + (" (noisy)" if entry["noisy"] else ""))
        for section in ("end_to_end", "per_layer"):
            for metric, value in entry.get(section, {}).items():
                print(name, metric, f"{value['value']:.6g}", value["unit"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)
    return exit_code


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure in this process: 0 end to end, "
                             "1 per layer")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 size, a smoke test; not for claims")
    parser.add_argument("--out", help="write the gathered JSON here")
    parser.add_argument("--trace-out",
                        help="directory for <workload>.spans.jsonl")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])
    if args.trace is None:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
