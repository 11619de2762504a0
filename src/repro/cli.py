"""Command-line interface.

Four subcommands, mirroring how the real product is operated:

- ``run-script`` — execute a legacy ETL job script against a freshly
  built virtualized stack (Hyper-Q in front of a CDW) or against the
  reference legacy server, and print job results;
- ``transpile``  — cross compile one legacy SQL statement to the CDW
  dialect;
- ``analyze``    — qInsight-style translatability report over a corpus
  of job scripts;
- ``simulate``   — run the discrete-event acquisition model with chosen
  machine parameters;
- ``stats``      — run a job (synthetic or scripted) on an instrumented
  node and print its metrics registry (Prometheus text or JSON);
- ``trace``      — same, with span tracing enabled; exports the span
  tree as JSONL, queries a persisted trace store (``--query`` with
  ``--trace-id``/``--job``), or attributes each job's wall time to
  pipeline stages (``--critical-path``);
- ``slo``        — run an instrumented job under a declarative SLO
  profile and print every objective's burn rates;
- ``dq``         — run an instrumented job under a declarative
  data-quality rule profile and print the precheck verdicts
  (violation counts per rule, rows routed to the error table);
- ``stream``     — drive a continuous micro-batch ingestion feed
  (scheduled schema drift, durable watermark, exactly-once replay;
  see docs/STREAMING.md);
- ``flight``     — inspect a dead job's flight-recorder bundle
  (post-mortem events + spans + metrics).

Usage: ``python -m repro <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Virtualized legacy ETL pipelines (EDBT'23 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run-script", help="execute a legacy ETL job script")
    run.add_argument("script", help="path to the job script")
    run.add_argument("--backend", choices=("hyperq", "legacy"),
                     default="hyperq",
                     help="virtualized CDW (default) or reference "
                          "legacy server")
    run.add_argument("--connect", default=None, metavar="HOST:PORT",
                     help="run against an already-serving node over "
                          "TCP instead of building a local stack")
    run.add_argument("--base-dir", default=None,
                     help="directory input files are read from "
                          "(default: the script's directory)")
    run.add_argument("--sessions-credits", type=int, default=16,
                     dest="credits", help="Hyper-Q credit pool size")
    run.add_argument("--show-tables", action="store_true",
                     help="dump every table after the run")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="enable span tracing and write the spans "
                          "as JSONL to PATH after the run")
    run.add_argument("--stats", action="store_true",
                     help="print the node's stats() snapshot as JSON "
                          "after the run")
    _add_chaos_args(run)
    _add_wlm_args(run)
    _add_dq_args(run)
    _add_logging_args(run)

    serve = sub.add_parser(
        "serve", help="serve a Hyper-Q node on a TCP port")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8855)
    serve.add_argument("--credits", type=int, default=16)
    serve.add_argument("--duration", type=float, default=None,
                       help="stop after this many seconds "
                            "(default: run until interrupted)")
    serve.add_argument("--trace", action="store_true",
                       help="enable span tracing on the served node")
    serve.add_argument("--max-connections", type=int, default=0,
                       help="refuse connections beyond this many "
                            "concurrent sessions (0 = unlimited)")
    _add_wlm_args(serve)
    _add_dq_args(serve)
    _add_logging_args(serve)

    transpile = sub.add_parser(
        "transpile", help="cross compile one legacy SQL statement")
    transpile.add_argument("sql", help="legacy SQL text (quote it)")
    transpile.add_argument("--bind", default=None, metavar="F1,F2",
                           help="bind host :params as staging columns "
                                "of these layout fields")

    analyze = sub.add_parser(
        "analyze", help="qInsight translatability report")
    analyze.add_argument("paths", nargs="+",
                         help="script files or directories of scripts")

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures as text tables")
    figures.add_argument("--out", default="figures-out",
                         help="output directory")
    figures.add_argument("--scale", type=float, default=1.0,
                         help="row-count multiplier for the "
                              "real-execution figures")
    figures.add_argument("--only", nargs="*", default=None,
                         help="subset of figure ids (fig7 fig8 fig9 "
                              "fig10 fig11 sessions fig7_paper_scale)")

    stats = sub.add_parser(
        "stats", help="run an instrumented job and print node metrics")
    _add_observed_job_args(stats)
    stats.add_argument("--format", choices=("prom", "json"),
                       default="prom",
                       help="Prometheus text exposition (default) or "
                            "the full stats() JSON snapshot")
    _add_logging_args(stats)

    trace = sub.add_parser(
        "trace", help="run a traced job and export its spans as JSONL")
    _add_observed_job_args(trace)
    trace.add_argument("--out", default="-", metavar="PATH",
                       help="JSONL destination (default: stdout)")
    trace.add_argument("--buffer-events", type=int, default=65536,
                       help="trace ring-buffer capacity")
    trace.add_argument("--sample-rate", type=float, default=1.0,
                       help="fraction of locally-rooted traces kept")
    trace.add_argument("--store-dir", default=None, metavar="DIR",
                       help="spill spans to a bounded JSONL trace "
                            "store in DIR (also the store --query "
                            "reads)")
    trace.add_argument("--query", action="store_true",
                       help="query an existing --store-dir instead of "
                            "running a job")
    trace.add_argument("--trace-id", default=None, metavar="HEX",
                       help="only spans of this trace")
    trace.add_argument("--job", default=None, metavar="JOB_ID",
                       help="only spans of this job's trace(s)")
    trace.add_argument("--critical-path", action="store_true",
                       help="print per-job stage attribution instead "
                            "of raw spans")
    _add_logging_args(trace)

    slo = sub.add_parser(
        "slo", help="evaluate SLO burn rates over an instrumented run")
    _add_observed_job_args(slo)
    slo.add_argument("--slo-profile", required=True, metavar="PATH",
                     help="SLO profile JSON (see docs/OBSERVABILITY.md "
                          "and examples/slo_profile.json)")
    slo.add_argument("--format", choices=("table", "json"),
                     default="table",
                     help="human-readable table (default) or JSON")
    _add_logging_args(slo)

    dq = sub.add_parser(
        "dq", help="run a data-quality precheck and print verdicts")
    _add_observed_job_args(dq)
    dq.add_argument("--dirty-fraction", type=float, default=0.0,
                    metavar="F",
                    help="fraction of synthetic rows seeded with "
                         "known violations (uses the dirty-data "
                         "workload preset; implies its rule profile "
                         "when --dq-profile is omitted)")
    dq.add_argument("--format", choices=("table", "json"),
                    default="table",
                    help="human-readable table (default) or JSON")
    _add_logging_args(dq)

    flight = sub.add_parser(
        "flight", help="inspect a job's flight-recorder bundle")
    flight.add_argument("job_id", nargs="?", default=None,
                        help="job whose bundle to print (omit to list "
                             "every bundle in --bundle-dir)")
    flight.add_argument("--bundle-dir", required=True, metavar="DIR",
                        help="directory failure bundles were dumped "
                             "into (HyperQConfig.flight_dump_dir)")
    flight.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="event timeline (default) or the raw "
                             "bundle JSON")

    stream = sub.add_parser(
        "stream", help="drive a continuous micro-batch ingestion feed")
    stream.add_argument("--batches", type=int, default=None,
                        help="micro-batches to run (default 12, or the "
                             "stream profile's value)")
    stream.add_argument("--rows", type=int, default=None,
                        help="rows per micro-batch (default 40)")
    stream.add_argument("--feed", default=None,
                        help="feed name (default orders_feed)")
    stream.add_argument("--drift-profile", default=None,
                        choices=("evolve", "route-to-error", "halt",
                                 "none"),
                        help="schema-drift policy; 'none' generates a "
                             "drift-free feed (default evolve)")
    stream.add_argument("--stream-profile", default=None, metavar="PATH",
                        help="stream profile JSON supplying feed "
                             "defaults + the gateway watermark dir "
                             "(see docs/STREAMING.md and "
                             "examples/stream_profile.json)")
    stream.add_argument("--cadence", type=float, default=None,
                        help="seconds to sleep between batches "
                             "(default 0)")
    stream.add_argument("--watermark-dir", default=None, metavar="DIR",
                        help="durable per-feed watermark directory "
                             "(default: node-managed temp dir)")
    stream.add_argument("--sessions", type=int, default=2,
                        help="parallel load sessions per batch")
    stream.add_argument("--credits", type=int, default=16,
                        help="Hyper-Q credit pool size")
    stream.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="human-readable summary (default) or JSON")
    _add_chaos_args(stream)
    _add_wlm_args(stream)
    _add_dq_args(stream)
    _add_logging_args(stream)

    simulate = sub.add_parser(
        "simulate", help="discrete-event acquisition model")
    simulate.add_argument("--rows", type=int, default=1_000_000)
    simulate.add_argument("--row-bytes", type=int, default=500)
    simulate.add_argument("--cores", type=int, default=8)
    simulate.add_argument("--credits", type=int, default=32)
    simulate.add_argument("--sessions", type=int, default=8)
    simulate.add_argument("--memory-gb", type=float, default=64.0)
    simulate.add_argument("--compression", action="store_true")
    simulate.add_argument("--synchronous-ack", action="store_true")
    return parser


def _add_chaos_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--chaos-profile", default=None, metavar="PATH",
        help="arm the fault injector with this chaos-profile JSON "
             "(see docs/RESILIENCE.md for the schema)")
    sub_parser.add_argument(
        "--chaos-seed", type=int, default=None,
        help="override the chaos profile's rng seed")


def _load_json_arg(args, name):
    """The parsed JSON file named by option ``name``, or None if unset."""
    path = getattr(args, name, None)
    if path is None:
        return None
    import json
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _add_wlm_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--wlm-profile", default=None, metavar="PATH",
        help="enable workload management with this wlm-profile JSON "
             "(resource pools + fair-share policy; see docs/WLM.md)")


def _add_dq_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--dq-profile", default=None, metavar="PATH",
        help="enable declarative data-quality prechecks with this "
             "dq-profile JSON (rulesets + rules; see docs/DQ.md)")


def _add_logging_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="enable structured logging (DEBUG/INFO/WARNING/...)")
    sub_parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines instead of text")


def _add_observed_job_args(sub_parser) -> None:
    """Workload options shared by ``stats`` and ``trace``."""
    sub_parser.add_argument(
        "--script", default=None, metavar="PATH",
        help="legacy ETL job script to run (default: a synthetic "
             "import workload)")
    sub_parser.add_argument("--base-dir", default=None,
                            help="input-file directory for --script")
    sub_parser.add_argument("--rows", type=int, default=5000,
                            help="synthetic workload size")
    sub_parser.add_argument("--sessions", type=int, default=2,
                            help="parallel load sessions")
    sub_parser.add_argument("--credits", type=int, default=16,
                            help="Hyper-Q credit pool size")
    _add_chaos_args(sub_parser)
    _add_wlm_args(sub_parser)
    _add_dq_args(sub_parser)


def _configure_cli_logging(args) -> None:
    if getattr(args, "log_level", None) is not None:
        from repro.obs import configure_logging
        configure_logging(args.log_level, json_output=args.log_json)


def _run_observed_job(args, *, trace: bool,
                      trace_buffer_events: int = 65536,
                      workload=None, setup_sql=(),
                      **config_kwargs):
    """Run one load job on an instrumented stack; returns the node.

    The caller owns the returned node's stack via ``node._cli_stack``
    and must close it after reading metrics/spans.  ``workload``
    replaces the default synthetic workload; ``setup_sql`` statements
    run directly on the engine before the job (parent dimensions etc.).
    """
    from repro.bench.harness import build_stack, run_workload_through_hyperq
    from repro.core.config import HyperQConfig
    from repro.workloads.generator import make_workload

    config_kwargs.setdefault("dq_profile", _load_json_arg(args, "dq_profile"))
    config = HyperQConfig(credits=args.credits, trace_enabled=trace,
                          trace_buffer_events=trace_buffer_events,
                          chaos_profile=_load_json_arg(args, "chaos_profile"),
                          chaos_seed=getattr(args, "chaos_seed", None),
                          wlm_profile=_load_json_arg(args, "wlm_profile"),
                          **config_kwargs)
    stack = build_stack(config=config)
    try:
        for sql in setup_sql:
            stack.engine.execute(sql)
        if args.script:
            from repro.legacy.script import ScriptInterpreter, parse_script
            with open(args.script, "r", encoding="utf-8") as handle:
                script = parse_script(handle.read())
            base_dir = args.base_dir or os.path.dirname(
                os.path.abspath(args.script))
            ScriptInterpreter(stack.node.connect,
                              base_dir=base_dir).run(script)
        else:
            if workload is None:
                workload = make_workload(args.rows)
            run_workload_through_hyperq(stack, workload,
                                        sessions=args.sessions)
    except BaseException:
        stack.close()
        raise
    node = stack.node
    node._cli_stack = stack
    return node


def _cmd_stats(args) -> int:
    import json

    _configure_cli_logging(args)
    node = _run_observed_job(args, trace=False)
    try:
        if args.format == "prom":
            print(node.render_prometheus(), end="")
        else:
            print(json.dumps(node.stats(), indent=2, default=str))
    finally:
        node._cli_stack.close()
    return 0


def _filter_trace_records(records: list, trace_id: int | None,
                          job_id: str | None) -> list:
    """Whole-trace filter: spans of the named trace and/or of every
    trace the job participated in (matched by ``job_id`` span attrs)."""
    if trace_id is None and job_id is None:
        return list(records)
    wanted = set()
    if trace_id is not None:
        wanted.add(trace_id)
    if job_id is not None:
        wanted.update(
            r.get("trace_id") for r in records
            if r.get("attrs", {}).get("job_id") == job_id)
    return [r for r in records if r.get("trace_id") in wanted]


def _emit_trace_records(records: list, out: str,
                        critical_path: bool) -> None:
    """Print records as a critical-path table or JSONL to ``out``."""
    import json

    if critical_path:
        from repro.obs.critical_path import analyze
        jobs = analyze(records)
        if not jobs:
            print("no completed job spans in the selection")
            return
        for row in jobs:
            stages = " ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in row["stages"].items())
            print(f"job {row['job_id']} trace {row['trace_id']}: "
                  f"total={row['total_s']:.3f}s {stages} "
                  f"other={row['other_s']:.3f}s "
                  f"critical={row['critical_stage']}")
        return
    lines = "".join(json.dumps(r, sort_keys=True) + "\n"
                    for r in records)
    if out == "-":
        sys.stdout.write(lines)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(lines)
        print(f"wrote {len(records)} spans to {out}")


def _cmd_trace(args) -> int:
    _configure_cli_logging(args)
    trace_id = int(args.trace_id, 16) if args.trace_id else None
    if args.query:
        # Query an existing spilled store — no job run at all.
        from repro.obs.tracestore import TraceStore
        if not args.store_dir:
            print("error: --query needs --store-dir", file=sys.stderr)
            return 1
        store = TraceStore(args.store_dir)
        records = store.query(trace_id=trace_id, job_id=args.job)
        store.close()
        _emit_trace_records(records, args.out, args.critical_path)
        return 0
    node = _run_observed_job(
        args, trace=True, trace_buffer_events=args.buffer_events,
        trace_sample_rate=args.sample_rate,
        trace_store_dir=args.store_dir)
    try:
        tracer = node.obs.tracer
        records = _filter_trace_records(
            tracer.records(), trace_id, args.job)
        _emit_trace_records(records, args.out, args.critical_path)
        if tracer.dropped:
            print(f"warning: ring buffer dropped spans "
                  f"{tracer.dropped} time(s); raise --buffer-events",
                  file=sys.stderr)
    finally:
        node._cli_stack.close()
    return 0


def _cmd_slo(args) -> int:
    import json

    _configure_cli_logging(args)
    with open(args.slo_profile, "r", encoding="utf-8") as handle:
        profile = json.load(handle)
    node = _run_observed_job(args, trace=False, slo_profile=profile)
    try:
        snapshot = node.obs.slo.snapshot()
    finally:
        node._cli_stack.close()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, default=str))
        return 0
    for name, result in sorted(snapshot["slos"].items()):
        burns = " ".join(
            f"burn[{window}s]={rate:.2f}"
            for window, rate in sorted(result["burn_rates"].items(),
                                       key=lambda kv: float(kv[0])))
        state = "BREACHING" if result["breaching"] else "ok"
        extra = ""
        if result["objective"] == "latency_p95":
            extra = (f" p95={result['p95_s']:.3f}s"
                     f"/{result['threshold_s']:g}s")
        print(f"{name} ({result['objective']}, pool={result['pool']}): "
              f"{state} good={result['good']} bad={result['bad']} "
              f"{burns}{extra}")
    return 0


def _cmd_dq(args) -> int:
    import json

    _configure_cli_logging(args)
    workload = None
    setup_sql = ()
    config_kwargs = {}
    if args.dirty_fraction > 0:
        from repro.workloads.generator import dirty_workload
        dirty = dirty_workload(args.rows,
                               violation_rate=args.dirty_fraction)
        workload = dirty.workload
        setup_sql = dirty.setup_sql
        if getattr(args, "dq_profile", None) is None:
            config_kwargs["dq_profile"] = dirty.dq_rules
    elif getattr(args, "dq_profile", None) is None:
        print("error: need --dq-profile (or --dirty-fraction to use "
              "the dirty preset's built-in rules)", file=sys.stderr)
        return 1
    node = _run_observed_job(args, trace=False, workload=workload,
                             setup_sql=setup_sql, **config_kwargs)
    try:
        snapshot = node.stats()["dq"]
    finally:
        node._cli_stack.close()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, default=str))
        return 0
    from repro.qinsight import render_dq_report
    print(render_dq_report(snapshot), end="")
    return 0


def _cmd_stream(args) -> int:
    import json

    from repro.bench.harness import build_stack
    from repro.core.config import HyperQConfig
    from repro.stream import StreamRunner, StreamSession
    from repro.workloads.streamgen import stream_workload

    _configure_cli_logging(args)
    profile = _load_json_arg(args, "stream_profile") or {}
    batches = args.batches if args.batches is not None \
        else int(profile.get("batches", 12))
    rows = args.rows if args.rows is not None \
        else int(profile.get("rows_per_batch", 40))
    feed = args.feed or profile.get("feed", "orders_feed")
    policy = args.drift_profile or profile.get("policy", "evolve")
    cadence = args.cadence if args.cadence is not None \
        else float(profile.get("cadence_s", 0.0))
    drift_cfg = profile.get("drift") or {}
    drift_on = policy != "none" and drift_cfg.get("enabled", True)
    workload = stream_workload(
        batches=batches, rows_per_batch=rows, drift=drift_on,
        add_at=drift_cfg.get("add_at"),
        rename_at=drift_cfg.get("rename_at"),
        seed=int(profile.get("seed", 7)), feed=feed,
        table=profile.get("table", "PROD.STREAM"))
    config = HyperQConfig(
        credits=args.credits,
        stream_profile=profile or None,
        chaos_profile=_load_json_arg(args, "chaos_profile"),
        chaos_seed=getattr(args, "chaos_seed", None),
        wlm_profile=_load_json_arg(args, "wlm_profile"),
        dq_profile=_load_json_arg(args, "dq_profile"))
    stack = build_stack(config=config)
    try:
        stack.engine.execute(workload.ddl)
        session = StreamSession(
            stack.node.connect, feed=feed,
            target_table=workload.target_table,
            et_table=workload.et_table, uv_table=workload.uv_table,
            policy="evolve" if policy == "none" else policy,
            watermark_dir=args.watermark_dir
            or profile.get("watermark_dir"),
            sessions=args.sessions)
        with session:
            report = StreamRunner(session, workload,
                                  cadence_s=cadence).run()
    finally:
        stack.close()
    summary = report.as_dict()
    if args.format == "json":
        print(json.dumps(summary, indent=2, default=str))
        return 0
    print(f"feed {summary['feed']}: {summary['committed']} committed, "
          f"{summary['skipped']} skipped, {summary['routed']} routed "
          f"of {summary['batches']} batches")
    print(f"rows inserted       : {summary['rows_inserted']}")
    print(f"error-table rows    : {summary['et_errors']}")
    print(f"throughput          : {summary['rows_per_second']} rows/s")
    print(f"batch latency p50   : {summary['latency_p50_s'] * 1000:.2f} ms")
    print(f"batch latency p95   : {summary['latency_p95_s'] * 1000:.2f} ms")
    print(f"drift events        : {summary['drift_events']}")
    for seq, event in report.drift:
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.items())
                          if k != "kind")
        print(f"  batch {seq}: {event.get('kind', '?')} {detail}")
    return 0


def _cmd_flight(args) -> int:
    import json

    from repro.obs.flight import FlightRecorder

    if args.job_id is None:
        names = sorted(
            entry[:-len(".json")]
            for entry in os.listdir(args.bundle_dir)
            if entry.endswith(".json"))
        if not names:
            print("no flight bundles found", file=sys.stderr)
            return 1
        for name in names:
            print(name)
        return 0
    path = os.path.join(args.bundle_dir, f"{args.job_id}.json")
    bundle = FlightRecorder.load_bundle(path)
    if args.format == "json":
        print(json.dumps(bundle, indent=2, default=str))
        return 0
    print(f"job {bundle['job_id']}: {bundle.get('reason', '?')} "
          f"({len(bundle.get('events', []))} events, "
          f"{len(bundle.get('spans', []))} spans)")
    for event in bundle.get("events", []):
        fields = " ".join(
            f"{k}={v}" for k, v in sorted(event.items())
            if k not in ("ts", "event"))
        print(f"  {event['ts']:.6f} {event['event']} {fields}".rstrip())
    for event in bundle.get("node_events", []):
        fields = " ".join(
            f"{k}={v}" for k, v in sorted(event.items())
            if k not in ("ts", "event"))
        print(f"  [node] {event['ts']:.6f} {event['event']} "
              f"{fields}".rstrip())
    return 0


def _cmd_run_script(args) -> int:
    from repro.bench.harness import build_stack
    from repro.core.config import HyperQConfig
    from repro.legacy.script import ScriptInterpreter, parse_script
    from repro.legacy.server import LegacyServer

    _configure_cli_logging(args)
    with open(args.script, "r", encoding="utf-8") as handle:
        source = handle.read()
    base_dir = args.base_dir or os.path.dirname(
        os.path.abspath(args.script))
    script = parse_script(source)

    node = None
    if args.connect:
        from repro.net_tcp import connect_tcp
        host, _, port = args.connect.rpartition(":")
        connect = lambda: connect_tcp(host or "127.0.0.1", int(port))  # noqa: E731
        engine = None
        closer = lambda: None  # noqa: E731
    elif args.backend == "legacy":
        backend = LegacyServer().start()
        connect = backend.connect
        engine = backend.engine
        closer = backend.stop
    else:
        stack = build_stack(config=HyperQConfig(
            credits=args.credits,
            trace_enabled=args.trace_out is not None,
            chaos_profile=_load_json_arg(args, "chaos_profile"),
            chaos_seed=args.chaos_seed,
            wlm_profile=_load_json_arg(args, "wlm_profile"),
            dq_profile=_load_json_arg(args, "dq_profile")))
        connect = stack.node.connect
        engine = stack.engine
        closer = stack.close
        node = stack.node
    try:
        interpreter = ScriptInterpreter(connect, base_dir=base_dir)
        result = interpreter.run(script)
        for i, job in enumerate(result.imports):
            print(f"import #{i + 1}: {job.rows_inserted} inserted, "
                  f"{job.rows_updated} updated, {job.rows_deleted} "
                  f"deleted, {job.et_errors} ET errors, "
                  f"{job.uv_errors} UV errors")
        for i, job in enumerate(result.exports):
            print(f"export #{i + 1}: {job.rows_exported} rows, "
                  f"{len(job.data)} bytes")
        for name, data in interpreter.files.items():
            path = os.path.join(base_dir, name)
            if not os.path.exists(path):
                with open(path, "wb") as handle:
                    handle.write(data)
                print(f"wrote {path} ({len(data)} bytes)")
        if args.show_tables and engine is not None:
            for table in engine.catalog.names():
                rows = engine.query(f'SELECT * FROM "{table}"') \
                    if not table.isidentifier() else \
                    engine.query(f"SELECT * FROM {table}")
                print(f"\n{table} ({len(rows)} rows):")
                for row in rows[:20]:
                    print("  " + " | ".join(
                        "NULL" if v is None else str(v) for v in row))
        if node is not None and args.trace_out:
            count = node.obs.tracer.export_jsonl(args.trace_out)
            print(f"wrote {count} spans to {args.trace_out}")
        if node is not None and args.stats:
            import json
            print(json.dumps(node.stats(), indent=2, default=str))
    finally:
        closer()
    return 0


def _cmd_serve(args) -> int:
    import time

    from repro.cdw.cloudstore import CloudStore
    from repro.cdw.engine import CdwEngine
    from repro.core.config import HyperQConfig
    from repro.core.gateway import HyperQNode
    from repro.net_tcp import TcpListener

    _configure_cli_logging(args)
    store = CloudStore()
    engine = CdwEngine(store=store)
    listener = TcpListener(host=args.host, port=args.port)
    node = HyperQNode(engine, store,
                      HyperQConfig(
                          credits=args.credits,
                          trace_enabled=args.trace,
                          max_connections=args.max_connections,
                          wlm_profile=_load_json_arg(args, "wlm_profile"),
                          dq_profile=_load_json_arg(args, "dq_profile")),
                      listener=listener)
    node.start()
    print(f"Hyper-Q serving on {listener.host}:{listener.port} "
          f"(credits={args.credits})", flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive path
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover
        pass
    finally:
        node.stop()
        stats = node.stats()
        print(f"served {stats['completed_jobs']} jobs, "
              f"{stats['rows_loaded']} rows")
    return 0


def _cmd_transpile(args) -> int:
    from repro.sqlxc import (
        bind_params_to_columns, fresh_name, parse_statement, render, to_cdw,
    )
    statement = parse_statement(args.sql, dialect="legacy")
    if args.bind:
        fields = [f.strip() for f in args.bind.split(",") if f.strip()]
        statement = bind_params_to_columns(
            statement, fields, fresh_name("s", statement, fields))
    print(render(to_cdw(statement), "cdw"))
    return 0


def _collect_scripts(paths: list[str]) -> dict[str, str]:
    scripts: dict[str, str] = {}
    for path in paths:
        if os.path.isdir(path):
            for entry in sorted(os.listdir(path)):
                full = os.path.join(path, entry)
                if os.path.isfile(full) and entry.endswith(
                        (".etl", ".job", ".script", ".txt")):
                    with open(full, "r", encoding="utf-8") as handle:
                        scripts[entry] = handle.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                scripts[os.path.basename(path)] = handle.read()
    return scripts


def _cmd_analyze(args) -> int:
    from repro.qinsight import WorkloadAnalyzer
    scripts = _collect_scripts(args.paths)
    if not scripts:
        print("no scripts found", file=sys.stderr)
        return 1
    report = WorkloadAnalyzer().analyze_corpus(scripts)
    print(report.render())
    return 0 if report.ok_fraction == 1.0 else 2


def _cmd_figures(args) -> int:
    from repro.bench.figures import FIGURES, regenerate_all
    only = args.only
    if only:
        unknown = [f for f in only if f not in FIGURES]
        if unknown:
            print(f"unknown figures: {', '.join(unknown)} "
                  f"(known: {', '.join(FIGURES)})", file=sys.stderr)
            return 1
    written = regenerate_all(args.out, scale=args.scale, only=only)
    for figure, path in written.items():
        print(f"{figure}: {path}")
        with open(path, "r", encoding="utf-8") as handle:
            print(handle.read())
    return 0


def _cmd_simulate(args) -> int:
    from repro.sim import SimParams, simulate_acquisition
    params = SimParams(
        rows=args.rows, row_bytes=args.row_bytes, cores=args.cores,
        credits=args.credits, sessions=args.sessions,
        memory_limit_bytes=int(args.memory_gb * (1 << 30)),
        compression=args.compression,
        synchronous_ack=args.synchronous_ack)
    report = simulate_acquisition(params)
    if report.crashed:
        print(f"CRASHED (out of memory) at t={report.crash_time:.1f}s, "
              f"peak memory {report.peak_memory_bytes / 2**30:.2f} GiB")
        return 3
    print(f"total time          : {report.total_time:.2f} s")
    print(f"acquisition time    : {report.acquisition_time:.2f} s")
    print(f"setup/teardown      : {report.setup_teardown_time:.2f} s")
    print(f"throughput          : "
          f"{report.throughput_bytes_per_s / 2**20:.1f} MiB/s")
    print(f"peak runnable tasks : {report.peak_runnable_tasks}")
    print(f"peak memory         : "
          f"{report.peak_memory_bytes / 2**20:.1f} MiB")
    print(f"blocked acquires    : {report.credit_blocked_acquires}")
    print(f"files uploaded      : {report.files_uploaded}")
    return 0


_COMMANDS = {
    "run-script": _cmd_run_script,
    "serve": _cmd_serve,
    "transpile": _cmd_transpile,
    "analyze": _cmd_analyze,
    "figures": _cmd_figures,
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "slo": _cmd_slo,
    "dq": _cmd_dq,
    "stream": _cmd_stream,
    "flight": _cmd_flight,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad option values surfaced by config/logging validation
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
