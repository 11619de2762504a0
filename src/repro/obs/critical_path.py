"""Stage attribution of a job's wall time from its span tree.

The adaptive story of the paper turns on one number per job: where did
the wall time go — acquisition, COPY, apply, or waiting for admission?
Phase stopwatches answer that for one job's own phases, but once
concurrent stage lanes overlap and WLM queues jobs before they start,
only the span tree has enough structure to attribute time honestly.

:func:`analyze` takes span records (from a tracer buffer or a
:class:`~repro.obs.tracestore.TraceStore` query) and, for each ``job``
span, computes the union of its descendants' time intervals per stage.
Overlapping spans of one stage count once (four converter workers
running concurrently are one second of acquisition per second of wall
time, not four); the residue the job span covers but no stage does is
``other_s`` (scheduling, protocol turnarounds, drain barriers).
Admission wait is taken from the ``wlm.admit`` span even though it
*precedes* the job span — by then the job exists for the client but
not yet for the gateway — so stage seconds can sum to more than the
job span's own duration.
"""

from __future__ import annotations

__all__ = ["STAGE_OF_SPAN", "analyze"]

#: span name -> attributed stage.  Spans not listed (codec.compile,
#: retry, apply.split events, ...) fall into the "other" residue.
STAGE_OF_SPAN = {
    "receive": "acquisition",
    "credit.acquire": "acquisition",
    "convert": "acquisition",
    "write": "acquisition",
    "upload": "acquisition",
    "copy": "copy",
    "apply": "apply",
    "wlm.admit": "admission_wait",
}

_STAGES = ("acquisition", "copy", "apply", "admission_wait")


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


def _descendants(root_span_id: int, by_parent: dict) -> list[dict]:
    out: list[dict] = []
    frontier = [root_span_id]
    while frontier:
        span_id = frontier.pop()
        for child in by_parent.get(span_id, ()):
            out.append(child)
            frontier.append(child["span_id"])
    return out


def analyze(records: list[dict],
            job_name: str = "job") -> list[dict]:
    """Per-job stage attribution for every ``job`` span in ``records``.

    Returns one dict per job span::

        {"job_id", "trace_id", "total_s",
         "stages": {"acquisition": s, "copy": s, "apply": s,
                    "admission_wait": s},
         "other_s", "critical_stage"}
    """
    by_parent: dict[int, list[dict]] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            by_parent.setdefault(parent, []).append(record)

    analyses: list[dict] = []
    for record in records:
        if record["name"] != job_name:
            continue
        job_start = record["start_ts"]
        job_end = job_start + record["duration_s"]
        job_id = record.get("attrs", {}).get("job_id", "")
        stage_intervals: dict[str, list[tuple[float, float]]] = {
            stage: [] for stage in _STAGES}
        spans = _descendants(record["span_id"], by_parent)
        # Admission spans are siblings of the job span (both parented
        # to the client's remote context), so the descendant walk
        # misses them; pull them in by trace + job id instead.
        seen = {span["span_id"] for span in spans}
        spans += [
            span for span in records
            if span["span_id"] not in seen
            and span["trace_id"] == record["trace_id"]
            and STAGE_OF_SPAN.get(span["name"]) == "admission_wait"
            and span.get("attrs", {}).get("job_id", "") == job_id]
        for span in spans:
            stage = STAGE_OF_SPAN.get(span["name"])
            if stage is None:
                continue
            start = span["start_ts"]
            end = start + span["duration_s"]
            if stage != "admission_wait":
                # Clamp pipeline stages into the job window; admission
                # wait happened before the job span opened and is kept
                # whole.
                start = max(start, job_start)
                end = min(end, job_end)
            if end > start:
                stage_intervals[stage].append((start, end))
        stages = {stage: round(_union_seconds(intervals), 9)
                  for stage, intervals in stage_intervals.items()}
        total = record["duration_s"]
        in_window = sum(seconds for stage, seconds in stages.items()
                        if stage != "admission_wait")
        other = max(0.0, total - in_window)
        critical = max(stages, key=lambda stage: stages[stage]) \
            if any(stages.values()) else "other"
        analyses.append({
            "job_id": job_id,
            "trace_id": record["trace_id"],
            "total_s": round(total, 9),
            "stages": stages,
            "other_s": round(other, 9),
            "critical_stage": critical,
        })
    return analyses
