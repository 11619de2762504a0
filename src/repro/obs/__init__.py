"""repro.obs — the end-to-end observability control plane.

Cooperating pieces, all threaded through the Hyper-Q stack via one
:class:`Observability` facade per node:

- :mod:`repro.obs.metrics` — a thread-safe registry of labeled
  counters/gauges/histograms aggregating across concurrent jobs, with
  trace exemplars on histograms;
- :mod:`repro.obs.trace`   — a span tracer that follows every chunk,
  staging file, and DML range through the pipeline into a bounded ring
  buffer, stitches cross-process traces via W3C-traceparent contexts,
  and exports JSONL;
- :mod:`repro.obs.tracestore` — bounded on-disk JSONL spill of the
  ring buffer with a trace/job query API;
- :mod:`repro.obs.slo`     — declarative per-pool objectives evaluated
  as multi-window burn rates;
- :mod:`repro.obs.flight`  — per-job flight recorder dumping
  post-mortem bundles on failure;
- :mod:`repro.obs.logging` — per-component structured loggers with an
  optional JSON formatter and automatic trace correlation.

Components take an ``obs`` argument defaulting to :data:`NULL_OBS`
(everything disabled, near-zero cost), so instrumentation points never
branch on ``None``.  See ``docs/OBSERVABILITY.md`` for the metric
catalog, the trace event schema, and the SLO profile format.
"""

from __future__ import annotations

from repro.obs.flight import NULL_FLIGHT_RECORDER, FlightRecorder
from repro.obs.logging import (
    JsonLogFormatter, configure_logging, get_logger,
)
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricFamily, MetricsRegistry,
)
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.trace import NULL_SPAN, Span, SpanContext, Tracer
from repro.obs.tracestore import TraceStore

__all__ = [
    "Observability", "NULL_OBS",
    "MetricsRegistry", "MetricFamily", "Counter", "Gauge", "Histogram",
    "Tracer", "Span", "SpanContext", "NULL_SPAN", "TraceStore",
    "SloEngine", "SloSpec", "FlightRecorder", "NULL_FLIGHT_RECORDER",
    "configure_logging", "get_logger", "JsonLogFormatter",
]


class Observability:
    """Per-node bundle of the metrics registry and the tracer.

    The canonical metric families every layer shares are created
    eagerly so call sites pay one attribute lookup — and so a disabled
    registry turns them all into the shared no-op instrument.
    """

    def __init__(self, *, metrics_enabled: bool = True,
                 trace_enabled: bool = False,
                 trace_buffer_events: int = 4096,
                 trace_sample_rate: float = 1.0,
                 trace_store_dir: str | None = None,
                 trace_store_segment_spans: int = 2048,
                 trace_store_max_segments: int = 8,
                 slo_profile=None,
                 flight_enabled: bool = True,
                 flight_max_events: int = 256,
                 flight_dump_dir: str | None = None,
                 node: str = "hyperq"):
        self.node = node
        self.registry = MetricsRegistry(enabled=metrics_enabled)
        self.trace_store = None
        if trace_enabled and trace_store_dir:
            self.trace_store = TraceStore(
                trace_store_dir,
                segment_max_spans=trace_store_segment_spans,
                max_segments=trace_store_max_segments)
        self._drop_warned = False
        self.tracer = Tracer(
            enabled=trace_enabled,
            max_events=trace_buffer_events,
            sample_rate=trace_sample_rate,
            sink=self.trace_store.write if self.trace_store else None,
            on_drop=self._on_span_drop)
        self.flight = FlightRecorder(
            enabled=flight_enabled,
            max_events_per_job=flight_max_events,
            dump_dir=flight_dump_dir)
        reg = self.registry
        self.slo = SloEngine.from_profile(slo_profile, registry=reg)

        # -- tracing health --
        self.trace_dropped_spans = reg.counter(
            "hyperq_trace_dropped_spans_total",
            "Span-buffer ring evictions (each loses the oldest spans)")

        # -- gateway / protocol --
        self.messages_total = reg.counter(
            "hyperq_messages_total",
            "Protocol messages dispatched by the PXC", ("kind",))
        self.connections_active = reg.gauge(
            "hyperq_connections_active",
            "Client connections currently open on the front end")
        self.connections_refused = reg.counter(
            "hyperq_connections_refused_total",
            "Connections shed at the max_connections cap")
        self.jobs_total = reg.counter(
            "hyperq_jobs_total",
            "Load jobs by lifecycle event", ("event",))
        self.job_phase_seconds = reg.histogram(
            "hyperq_job_phase_seconds",
            "Per-job phase durations (Figure 7 split)", ("phase",))

        # -- acquisition pipeline --
        self.stage_seconds = reg.histogram(
            "hyperq_stage_seconds",
            "Per-unit latency of each pipeline stage", ("stage",))
        self.chunks_received = reg.counter(
            "hyperq_chunks_received_total",
            "Client DATA chunks accepted")
        self.bytes_received = reg.counter(
            "hyperq_bytes_received_total",
            "Raw legacy-encoded bytes accepted")
        self.records_converted = reg.counter(
            "hyperq_records_converted_total",
            "Records successfully converted to staging blocks")
        self.acquisition_errors = reg.counter(
            "hyperq_acquisition_errors_total",
            "Records rejected during conversion")
        self.bytes_staged = reg.counter(
            "hyperq_bytes_staged_total",
            "Staging block bytes handed to the FileWriters")
        self.files_written = reg.counter(
            "hyperq_files_written_total",
            "Staging files finalized on local disk")
        self.staged_file_bytes = reg.histogram(
            "hyperq_staged_file_bytes",
            "Size distribution of finalized staging files")
        self.bytes_uploaded = reg.counter(
            "hyperq_bytes_uploaded_total",
            "Bytes shipped to the cloud store (post-compression)")
        self.upload_seconds = reg.histogram(
            "hyperq_upload_seconds",
            "Bulk-loader upload latency per file")
        self.copy_rows = reg.counter(
            "hyperq_copy_rows_total",
            "Rows landed in staging tables by COPY INTO")

        # -- credit back-pressure --
        self.credit_acquires = reg.counter(
            "hyperq_credit_acquires_total",
            "Credit acquisitions", ("blocked",))
        self.credit_wait_seconds = reg.histogram(
            "hyperq_credit_wait_seconds",
            "Time sessions stalled waiting for a credit")
        self.credits_available = reg.gauge(
            "hyperq_credits_available",
            "Credits currently in the pool")

        # -- application phase --
        self.rows_applied = reg.counter(
            "hyperq_rows_applied_total",
            "Target-table rows affected by applied DML", ("op",))
        self.apply_statements = reg.counter(
            "hyperq_apply_statements_total",
            "Set-oriented DML executions (successful or failed)")
        self.apply_splits = reg.counter(
            "hyperq_apply_splits_total",
            "Adaptive error-handler chunk splits")
        self.apply_errors = reg.counter(
            "hyperq_apply_errors_total",
            "Errors recorded during application", ("kind",))
        self.scan_pruned_rows = reg.counter(
            "hyperq_scan_pruned_rows_total",
            "Staging rows skipped by __SEQ zone-map range pruning")
        self.engine_vector_fallbacks = reg.counter(
            "hyperq_engine_vector_fallbacks_total",
            "Vectorizable statement kinds the engine ran on the row "
            "interpreter instead", ("reason",))
        self.engine_kernel_declines = reg.counter(
            "hyperq_engine_kernel_declines_total",
            "Columns a buffer kernel left to its per-value closure",
            ("kernel",))

        # -- data-quality precheck (repro.dq) --
        self.dq_checked = reg.counter(
            "hyperq_dq_checked_total",
            "Staging rows scanned by the dq precheck")
        self.dq_violations = reg.counter(
            "hyperq_dq_violations_total",
            "Rule violations detected by the dq precheck", ("rule",))
        self.dq_routed_rows = reg.counter(
            "hyperq_dq_routed_rows_total",
            "Staging rows routed to the error table before APPLY")

        # -- continuous ingestion (repro.stream) --
        self.stream_batches = reg.counter(
            "hyperq_stream_batches_total",
            "Stream micro-batches by outcome (committed rode the full "
            "load path, skipped were replay of already-committed "
            "sequences, routed went whole to the error table)",
            ("feed", "outcome"))
        self.stream_lag_seconds = reg.gauge(
            "hyperq_stream_lag_seconds",
            "Source-to-commit lag of the last committed micro-batch "
            "(commit time minus the batch's source event timestamp)",
            ("feed",))
        self.stream_drift_events = reg.counter(
            "hyperq_stream_drift_events_total",
            "Schema-drift events accepted per feed", ("feed", "kind"))

        # -- compiled codecs / prepared plans --
        self.plan_cache_hits = reg.counter(
            "hyperq_plan_cache_hits_total",
            "Prepared-DML plan cache hits (template reused, only the "
            "__SEQ range literals rebound)")
        self.plan_cache_misses = reg.counter(
            "hyperq_plan_cache_misses_total",
            "Prepared-DML plan cache misses (full parse+bind+translate)")
        self.codec_compiles = reg.counter(
            "hyperq_codec_compiles_total",
            "Row codecs compiled per job layout", ("kind",))

        # -- resilience / fault injection --
        self.faults_injected = reg.counter(
            "hyperq_faults_injected_total",
            "Faults fired by the chaos injector", ("point", "kind"))
        self.retry_attempts = reg.counter(
            "hyperq_retry_attempts_total",
            "Transient failures absorbed by the retry layer",
            ("target",))
        self.retry_giveups = reg.counter(
            "hyperq_retry_giveups_total",
            "Retried calls that exhausted attempts or budget",
            ("target",))
        self.breaker_transitions = reg.counter(
            "hyperq_breaker_transitions_total",
            "Circuit-breaker state transitions", ("target", "state"))
        self.breaker_open = reg.gauge(
            "hyperq_breaker_open",
            "1 while a target's circuit breaker is open",
            ("target",))
        self.checkpoint_skips = reg.counter(
            "hyperq_checkpoint_skips_total",
            "Work units skipped because the checkpoint journal showed "
            "them durable", ("kind",))

        # -- workload management --
        self.wlm_admitted = reg.counter(
            "hyperq_wlm_admitted_total",
            "Jobs admitted into a resource pool", ("pool",))
        self.wlm_throttled = reg.counter(
            "hyperq_wlm_throttled_total",
            "Admissions shed with WLM_THROTTLED", ("pool", "reason"))
        self.wlm_timeouts = reg.counter(
            "hyperq_wlm_timeout_total",
            "Queued admissions that outlived queue_timeout_s", ("pool",))
        self.wlm_queue_depth = reg.gauge(
            "hyperq_wlm_queue_depth",
            "Admissions currently queued per pool", ("pool",))
        self.wlm_slots_occupied = reg.gauge(
            "hyperq_wlm_slots_occupied",
            "Concurrency slots currently occupied per pool", ("pool",))
        self.wlm_admission_wait_seconds = reg.histogram(
            "hyperq_wlm_admission_wait_seconds",
            "Time admitted jobs queued before getting a slot", ("pool",))
        self.wlm_job_seconds = reg.histogram(
            "hyperq_wlm_job_seconds",
            "Admission-to-release lifetime of pool slots", ("pool",))
        self.wlm_credit_grants = reg.counter(
            "hyperq_wlm_credit_grants_total",
            "Credits granted by the fair-share arbiter",
            ("pool", "contended"))
        self.wlm_credit_wait_seconds = reg.histogram(
            "hyperq_wlm_credit_wait_seconds",
            "Time sessions waited on the arbiter for a credit",
            ("pool",))

        # -- CDW substrate --
        self.statement_seconds = reg.histogram(
            "cdw_statement_seconds",
            "CDW engine statement latency", ("statement",))
        self.table_bytes = reg.gauge(
            "hyperq_table_bytes",
            "Bytes of column buffers held per CDW table",
            ("table",))

    def _on_span_drop(self) -> None:
        """Tracer drop hook: count every eviction, warn exactly once."""
        self.trace_dropped_spans.inc()
        if not self._drop_warned:
            self._drop_warned = True
            get_logger("obs").warning(
                "trace ring buffer full; oldest spans are being "
                "dropped (raise trace_buffer_events or configure a "
                "trace store)",
                extra={"node": self.node,
                       "buffer_events": self.tracer.max_events})

    def close(self) -> None:
        """Flush and close the on-disk trace store, if one is wired.

        The node calls this on stop so spilled segments are readable
        by ``trace --query`` immediately afterwards.
        """
        if self.trace_store is not None:
            self.trace_store.close()

    @classmethod
    def from_config(cls, config, node: str = "hyperq") -> "Observability":
        """Build the bundle from a :class:`HyperQConfig`."""
        return cls(
            metrics_enabled=getattr(config, "metrics_enabled", True),
            trace_enabled=getattr(config, "trace_enabled", False),
            trace_buffer_events=getattr(config, "trace_buffer_events",
                                        4096),
            trace_sample_rate=getattr(config, "trace_sample_rate", 1.0),
            trace_store_dir=getattr(config, "trace_store_dir", None),
            trace_store_segment_spans=getattr(
                config, "trace_store_segment_spans", 2048),
            trace_store_max_segments=getattr(
                config, "trace_store_max_segments", 8),
            slo_profile=getattr(config, "slo_profile", None),
            flight_enabled=getattr(config, "flight_recorder_enabled",
                                   True),
            flight_max_events=getattr(config, "flight_max_events", 256),
            flight_dump_dir=getattr(config, "flight_dump_dir", None),
            node=node,
        )


#: shared fully-disabled bundle; the default ``obs`` everywhere.
NULL_OBS = Observability(metrics_enabled=False, trace_enabled=False,
                         flight_enabled=False, node="null")
