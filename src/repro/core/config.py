"""Tuning knobs of a Hyper-Q node.

Section 6: "Hyper-Q exposes these different tuning parameters that the
customers can configure according to different ETL job requirements" —
intermediate file size, compression, parallelism, and the credit pool.

A field here describes a job requirement or a deployment setting; it
never selects between an implementation and the baseline it replaced.
Reference implementations (interpreter codecs, row storage, full
scans) are reached by constructing them directly in the differential
tests, not through configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HyperQConfig"]


@dataclass
class HyperQConfig:
    """Configuration for one Hyper-Q node."""

    #: DataConverter lanes per load job (chunk ``seq % converters``).
    converters: int = 4
    #: FileWriter lanes per load job (parallel staging files).
    filewriters: int = 2
    #: size of the CreditManager pool shared by all jobs on the node.
    credits: int = 16
    #: how long a session blocks waiting for a credit before the job fails.
    credit_timeout_s: float | None = 30.0
    #: finalize a staging file once it reaches this many bytes.
    file_threshold_bytes: int = 4 * 1024 * 1024
    #: gzip-compress staging files before upload (None or "gzip").
    compression: str | None = None
    #: cloud store container staging files are uploaded into.
    container: str = "hyperq-staging"
    #: delimiter of the CSV staging files.
    csv_delimiter: str = ","
    #: stride between per-chunk sequence-number blocks; must exceed the
    #: number of records any single client chunk can contain.
    seq_stride: int = 1 << 20
    #: default adaptive-error-handling limits (overridable per job).
    max_errors: int = 1000
    max_retries: int = 64
    #: rows per export chunk (one EXPORT_DATA record block).
    export_chunk_rows: int = 1000
    #: how many encoded chunks the TDFCursor buffers ahead of the client.
    prefetch_packets: int = 4
    #: entries in Beta's prepared-DML plan cache (LRU; one entry per
    #: distinct (DML text, staging table, layout) shape).
    plan_cache_size: int = 128
    #: maintain the node-level metrics registry (counters/histograms
    #: behind ``HyperQNode.stats()``); near-zero cost, but can be turned
    #: off for pure-throughput benchmarking.
    metrics_enabled: bool = True
    #: emit a span per chunk/file/DML unit into the trace ring buffer.
    trace_enabled: bool = False
    #: capacity of the trace ring buffer (oldest spans dropped first).
    trace_buffer_events: int = 4096
    #: fraction of locally-rooted traces kept (1.0 = trace everything);
    #: traces continued from a client's traceparent are always kept.
    trace_sample_rate: float = 1.0
    #: when set, spill every closed span to bounded JSONL segments in
    #: this directory (queryable via ``repro trace --query``).
    trace_store_dir: str | None = None
    #: spans per trace-store segment file before rotation.
    trace_store_segment_spans: int = 2048
    #: trace-store segments retained (oldest pruned first).
    trace_store_max_segments: int = 8
    #: when set ("DEBUG"/"INFO"/...), configure structured logging for
    #: the whole ``repro.*`` hierarchy at node construction.
    log_level: str | None = None
    #: emit logs as JSON lines instead of human-readable text.
    log_json: bool = False

    # -- front end (repro.core.frontend: one thread per connection) --
    #: refuse connections beyond this many concurrent sessions with a
    #: typed retryable ERROR (code 3159) instead of growing without
    #: bound under a connection flood.  0 = unlimited.
    max_connections: int = 0

    # -- resilience (repro.resilience) --
    #: total tries per cloud-facing call (1 = no retry).
    retry_max_attempts: int = 4
    #: first full-jitter backoff ceiling; doubles per retry.
    retry_base_delay_s: float = 0.05
    #: backoff ceiling cap.
    retry_max_delay_s: float = 2.0
    #: max cumulative backoff sleep per retried call.
    retry_budget_s: float = 30.0
    #: consecutive failures that open a target's circuit breaker.
    breaker_failure_threshold: int = 5
    #: how long an open breaker rejects calls before half-open probes.
    breaker_cooldown_s: float = 5.0

    # -- workload management (repro.wlm) --
    #: parsed wlm-profile JSON ({"policy": ..., "pools": [...]} or a
    #: bare pool list); None disables workload management entirely.
    wlm_profile: dict | list | None = None

    # -- service-level objectives (repro.obs.slo) --
    #: parsed slo-profile JSON ({"slos": [...]} or a bare spec list);
    #: None disables SLO evaluation entirely.
    slo_profile: dict | list | None = None

    # -- data quality (repro.dq) --
    #: parsed dq-profile JSON ({"rulesets": [...]} or a bare rule
    #: list); None disables the pre-APPLY data-quality check entirely.
    dq_profile: dict | list | None = None

    # -- continuous ingestion (repro.stream) --
    #: parsed stream-profile JSON describing the node's streaming
    #: defaults ({"watermark_dir": ..., "drift_policy": ...,
    #: "cadence_s": ..., ...}); None leaves every stream knob to the
    #: per-feed BEGIN_LOAD metadata.
    stream_profile: dict | None = None

    # -- per-job flight recorder (repro.obs.flight) --
    #: keep a bounded in-memory event log per job and dump a
    #: post-mortem bundle (events + spans + metrics) when a job dies.
    flight_recorder_enabled: bool = True
    #: events retained per job (oldest dropped first).
    flight_max_events: int = 256
    #: where failure bundles are written; None uses a ``flight/``
    #: subdirectory of the node's staging area (removed at node stop).
    flight_dump_dir: str | None = None

    # -- fault injection (repro.faults) --
    #: parsed chaos-profile JSON ({"seed": ..., "rules": [...]} or a
    #: bare rule list); None disables injection entirely.
    chaos_profile: dict | list | None = None
    #: overrides the profile's rng seed when not None.
    chaos_seed: int | None = None

    def __post_init__(self):
        """Validate the configuration values."""
        if self.converters < 1:
            raise ValueError("need at least one DataConverter")
        if self.filewriters < 1:
            raise ValueError("need at least one FileWriter")
        if self.credits < 1:
            raise ValueError("credit pool cannot be empty")
        if self.seq_stride < 2:
            raise ValueError("seq_stride too small")
        if self.compression not in (None, "gzip"):
            raise ValueError(f"unsupported compression {self.compression!r}")
        if self.trace_buffer_events < 1:
            raise ValueError("trace buffer needs at least one slot")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
        if self.trace_store_segment_spans < 1:
            raise ValueError("trace_store_segment_spans must be >= 1")
        if self.trace_store_max_segments < 1:
            raise ValueError("trace_store_max_segments must be >= 1")
        if self.flight_max_events < 1:
            raise ValueError("flight_max_events must be >= 1")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.max_connections < 0:
            raise ValueError("max_connections cannot be negative")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if min(self.retry_base_delay_s, self.retry_max_delay_s,
               self.retry_budget_s) < 0:
            raise ValueError("retry delays cannot be negative")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s cannot be negative")
        if self.chaos_profile is not None and \
                not isinstance(self.chaos_profile, (dict, list)):
            raise ValueError("chaos_profile must be a dict or rule list")
        if self.wlm_profile is not None and \
                not isinstance(self.wlm_profile, (dict, list)):
            raise ValueError("wlm_profile must be a dict or pool list")
        if self.slo_profile is not None and \
                not isinstance(self.slo_profile, (dict, list)):
            raise ValueError("slo_profile must be a dict or spec list")
        if self.dq_profile is not None and \
                not isinstance(self.dq_profile, (dict, list)):
            raise ValueError("dq_profile must be a dict or rule list")
        if self.stream_profile is not None and \
                not isinstance(self.stream_profile, dict):
            raise ValueError("stream_profile must be a dict")
