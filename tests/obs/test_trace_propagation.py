"""Cross-process trace propagation: contexts, stores, critical path.

Unit-level coverage of the pieces that stitch client-side and
gateway-side spans into one end-to-end trace: the traceparent
serialization on :class:`SpanContext`, the protocol metadata plumbing
on :class:`Message`, remote-parented span creation, root sampling, the
JSONL :class:`TraceStore`, and the critical-path analyzer.  The real
over-TCP acceptance test lives in ``test_e2e_trace_tcp.py``.
"""

import json
import os
import random

import pytest

from repro.legacy.protocol import TRACEPARENT_KEY, Message, MessageKind
from repro.obs.critical_path import analyze
from repro.obs.trace import NULL_SPAN, SpanContext, Tracer
from repro.obs.tracestore import TraceStore


class TestSpanContext:
    def test_roundtrip(self):
        ctx = SpanContext(trace_id=0xABCDEF, span_id=0x123, sampled=True)
        header = ctx.to_traceparent()
        assert header == f"00-{0xABCDEF:032x}-{0x123:016x}-01"
        parsed = SpanContext.from_traceparent(header)
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id
        assert parsed.sampled is True

    def test_unsampled_flag_roundtrip(self):
        ctx = SpanContext(trace_id=7, span_id=9, sampled=False)
        parsed = SpanContext.from_traceparent(ctx.to_traceparent())
        assert parsed.sampled is False

    @pytest.mark.parametrize("header", [
        None,
        12345,
        "",
        "garbage",
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",   # bad version
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",   # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",   # short span id
        "00-" + "a" * 32 + "-" + "b" * 16 + "-001",  # long flags
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",   # non-hex
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # zero span id
        "00-" + "a" * 32 + "-" + "b" * 16,           # missing flags
    ])
    def test_malformed_headers_yield_none(self, header):
        assert SpanContext.from_traceparent(header) is None


def received_context(message):
    """The context a server reads (the request table's traceparent
    check): ``None`` for an absent or malformed header."""
    return SpanContext.from_traceparent(message.meta.get(TRACEPARENT_KEY))


class TestMessagePlumbing:
    def test_set_and_read_context(self):
        tracer = Tracer(enabled=True)
        span = tracer.span("client.job")
        message = Message(MessageKind.BEGIN_LOAD, {"job_id": "j1"})
        assert message.set_trace_context(span) is message
        ctx = received_context(message)
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id
        span.end()

    def test_null_span_is_a_noop(self):
        message = Message(MessageKind.BEGIN_LOAD, {})
        message.set_trace_context(NULL_SPAN)
        assert TRACEPARENT_KEY not in message.meta
        assert received_context(message) is None

    def test_accepts_bare_context(self):
        ctx = SpanContext(trace_id=5, span_id=6)
        message = Message(MessageKind.APPLY_DML, {})
        message.set_trace_context(ctx)
        assert received_context(message).trace_id == 5

    def test_survives_wire_roundtrip(self):
        from repro.legacy.protocol import Coalescer
        message = Message(MessageKind.BEGIN_LOAD, {"job_id": "j1"})
        message.set_trace_context(SpanContext(trace_id=5, span_id=6))
        [decoded] = list(Coalescer().feed(message.to_bytes()))
        assert received_context(decoded).span_id == 6


class TestRemoteParenting:
    def test_context_parent_continues_trace(self):
        tracer = Tracer(enabled=True)
        remote = SpanContext(trace_id=0xFEED, span_id=0xBEEF)
        span = tracer.span("job", parent=remote)
        span.end()
        [record] = tracer.records()
        assert record["trace_id"] == 0xFEED
        assert record["parent_id"] == 0xBEEF

    def test_unsampled_context_disables_subtree(self):
        tracer = Tracer(enabled=True)
        remote = SpanContext(trace_id=1, span_id=2, sampled=False)
        assert tracer.span("job", parent=remote) is NULL_SPAN
        assert tracer.records() == []

    def test_no_context_starts_local_root(self):
        tracer = Tracer(enabled=True)
        span = tracer.span("job", parent=None)
        span.end()
        [record] = tracer.records()
        assert record["parent_id"] is None

    def test_sample_rate_drops_new_roots_only(self):
        tracer = Tracer(enabled=True, sample_rate=0.0,
                        rng=random.Random(1))
        assert tracer.span("job") is NULL_SPAN
        # Continuations of a remote trace bypass root sampling: the
        # sampling decision was made (and propagated) at the root.
        remote = SpanContext(trace_id=3, span_id=4)
        continued = tracer.span("job", parent=remote)
        assert continued is not NULL_SPAN
        continued.end()
        assert len(tracer.records()) == 1

    def test_sink_and_drop_callbacks(self):
        seen, drops = [], []
        tracer = Tracer(enabled=True, max_events=2,
                        sink=seen.append, on_drop=lambda: drops.append(1))
        for i in range(4):
            tracer.span(f"s{i}").end()
        assert len(seen) == 4          # the sink sees every record
        assert len(tracer.records()) == 2
        assert tracer.dropped == 2
        assert len(drops) == 2


class TestDropAccounting:
    def test_drops_counted_and_warned_once(self, caplog):
        from repro.obs import Observability
        obs = Observability(trace_enabled=True, trace_buffer_events=2)
        with caplog.at_level("WARNING", logger="repro.obs"):
            for i in range(6):
                obs.tracer.span(f"s{i}").end()
        assert obs.tracer.dropped == 4
        assert obs.trace_dropped_spans.samples()[0]["value"] == 4.0
        # The warning fires exactly once, not once per eviction.
        warnings = [r for r in caplog.records
                    if "ring buffer full" in r.getMessage()]
        assert len(warnings) == 1
        text = obs.registry.render_prometheus()
        assert "hyperq_trace_dropped_spans_total 4" in text


class TestTraceStore:
    def _span_record(self, trace_id, span_id, name="x", **attrs):
        return {"trace_id": trace_id, "span_id": span_id,
                "parent_id": None, "name": name, "start_ts": 0.0,
                "duration_s": 0.0, "status": "ok", "attrs": attrs}

    def test_write_and_read_back(self, tmp_path):
        store = TraceStore(str(tmp_path))
        for i in range(5):
            store.write(self._span_record(1, i + 1))
        assert len(store.records()) == 5
        store.close()

    def test_rotation_and_pruning(self, tmp_path):
        store = TraceStore(str(tmp_path), segment_max_spans=4,
                           max_segments=2)
        for i in range(20):
            store.write(self._span_record(1, i + 1))
        store.flush()
        assert len(store.segments()) <= 2
        # Only the newest spans survive the bounded retention.
        kept = [r["span_id"] for r in store.records()]
        assert kept == sorted(kept)
        assert max(kept) == 20
        assert len(kept) <= 8
        store.close()

    def test_resumes_segment_numbering(self, tmp_path):
        store = TraceStore(str(tmp_path), segment_max_spans=2)
        for i in range(5):
            store.write(self._span_record(1, i + 1))
        store.close()
        reopened = TraceStore(str(tmp_path), segment_max_spans=2)
        reopened.write(self._span_record(2, 100))
        reopened.flush()
        names = [os.path.basename(p) for p in reopened.segments()]
        assert names == sorted(names)
        assert 100 in [r["span_id"] for r in reopened.records()]
        reopened.close()

    def test_query_by_trace_and_job(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.write(self._span_record(10, 1, name="job", job_id="jA"))
        store.write(self._span_record(10, 2, name="copy"))
        store.write(self._span_record(20, 3, name="job", job_id="jB"))
        by_trace = store.query(trace_id=10)
        assert {r["span_id"] for r in by_trace} == {1, 2}
        # job query pulls every span of the job's whole trace, even the
        # spans that do not themselves carry the job_id attribute.
        by_job = store.query(job_id="jA")
        assert {r["span_id"] for r in by_job} == {1, 2}
        assert store.query(job_id="nope") == []
        store.close()

    def test_sink_integration_with_tracer(self, tmp_path):
        store = TraceStore(str(tmp_path))
        tracer = Tracer(enabled=True, sink=store.write)
        with tracer.span("job", job_id="j1"):
            pass
        store.flush()
        assert [r["name"] for r in store.records()] == ["job"]
        store.close()

    def test_jsonl_lines_are_valid(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.write(self._span_record(1, 1))
        store.flush()
        [segment] = store.segments()
        with open(segment, "r", encoding="utf-8") as handle:
            for line in handle:
                assert json.loads(line)["trace_id"] == 1
        store.close()


class TestCriticalPath:
    def _record(self, name, span_id, parent_id, start, duration,
                **attrs):
        return {"trace_id": 1, "span_id": span_id,
                "parent_id": parent_id, "name": name,
                "start_ts": start, "duration_s": duration,
                "status": "ok", "attrs": attrs}

    def test_stage_attribution(self):
        records = [
            self._record("wlm.admit", 1, 99, 0.0, 1.0, job_id="j1"),
            self._record("job", 2, 99, 1.0, 10.0, job_id="j1"),
            # two overlapping acquisition spans count once
            self._record("receive", 3, 2, 1.0, 4.0),
            self._record("convert", 4, 3, 2.0, 4.0),
            self._record("copy", 5, 2, 6.0, 2.0),
            self._record("apply", 6, 2, 8.0, 3.0),
        ]
        [job] = analyze(records)
        assert job["job_id"] == "j1"
        assert job["stages"]["acquisition"] == pytest.approx(5.0)
        assert job["stages"]["copy"] == pytest.approx(2.0)
        assert job["stages"]["apply"] == pytest.approx(3.0)
        # admission wait preceded the job span but is still attributed
        assert job["stages"]["admission_wait"] == pytest.approx(1.0)
        assert job["other_s"] == pytest.approx(0.0)
        assert job["critical_stage"] == "acquisition"

    def test_other_residue(self):
        records = [
            self._record("job", 1, None, 0.0, 10.0, job_id="j1"),
            self._record("apply", 2, 1, 0.0, 4.0),
        ]
        [job] = analyze(records)
        assert job["other_s"] == pytest.approx(6.0)
        assert job["critical_stage"] == "apply"

    def test_clamps_to_job_window(self):
        records = [
            self._record("job", 1, None, 5.0, 5.0, job_id="j1"),
            # an upload span reported beyond the job's end is clamped
            self._record("upload", 2, 1, 9.0, 10.0),
        ]
        [job] = analyze(records)
        assert job["stages"]["acquisition"] == pytest.approx(1.0)

    def test_no_job_spans(self):
        assert analyze([self._record("copy", 1, None, 0.0, 1.0)]) == []
