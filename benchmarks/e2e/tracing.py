"""Spans recorded from outside the program, and the per-layer ledger.

Nothing under ``src/`` knows about this file.  :data:`HOOKS` names the
public methods at each layer boundary; :meth:`Tracer.install` swaps a
timing wrapper onto the owning class (or, for the two module-level
functions, into the namespace that looks the name up at call time) and
:meth:`Tracer.uninstall` puts the originals back, so untraced and traced
units run in one process.  A hook whose target no longer exists is
reported in ``Tracer.missing`` and its metrics read 0 — the benchmark
outlives refactors of the layers it watches.

Spans are ``{name, start, end, thread, parent, job_id}`` kept in memory;
the parent is the innermost open span of the same thread.  A span's
self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

#: spans that frame a unit on the client; everything else is a layer.
UNIT_SPANS = ("client.run_import", "client.run_export")
CLIENT_REQUEST = "client.request"
GATEWAY = "core.gateway.handle_message"

_GATEWAY_KINDS = {
    "LOGON": "logon_s", "BEGIN_LOAD": "begin_load_s", "DATA": "data_s",
    "DATA_EOF": "data_s", "APPLY_DML": "apply_s", "END_LOAD": "end_load_s",
    "BEGIN_EXPORT": "begin_export_s", "EXPORT_FETCH": "export_fetch_s",
}
_STATEMENT_KINDS = {
    "COPY": "copy", "COPYINTO": "copy",
    "INSERT": "dml", "UPDATE": "dml", "DELETE": "dml", "UPSERT": "dml",
    "MERGE": "dml",
    "CREATE": "ddl", "CREATETABLE": "ddl", "CREATETABLEAS": "ddl",
    "DROP": "ddl", "DROPTABLE": "ddl", "ALTER": "ddl", "ALTERTABLE": "ddl",
    "SELECT": "select", "SETOP": "select",
}


# -- what each hook remembers about a call (args[0] is ``self``) -------------

def _note_request(attrs, args, kwargs, result):
    attrs["kind"] = args[1].kind.name


def _note_handle(attrs, args, kwargs, result):
    attrs["kind"] = args[2].kind.name


def _note_to_bytes(attrs, args, kwargs, result):
    attrs["kind"] = args[0].kind.name
    attrs["bytes"] = len(result or b"")


def _note_chunk_seq(attrs, args, kwargs, result):
    attrs["chunk_seq"] = args[1]


def _note_convert(attrs, args, kwargs, result):
    attrs["chunk_seq"] = args[1]
    attrs["bytes_in"] = len(args[2])
    if result is not None:
        attrs["rows"] = result.records
        attrs["bytes_out"] = len(result.csv_bytes)
        attrs["rejected"] = len(result.errors)


def _note_staged(attrs, args, kwargs, result):
    if result is not None:
        attrs["files"] = 1
        attrs["bytes"] = result.size


def _note_upload(attrs, args, kwargs, result):
    if result is not None:
        attrs["files"] = result.files
        attrs["bytes"] = result.uploaded_bytes


def _note_statement(attrs, args, kwargs, result):
    statement = args[1]
    word = (statement.lstrip().split(None, 1)[0]
            if isinstance(statement, str) else type(statement).__name__)
    attrs["kind"] = _STATEMENT_KINDS.get(word.upper(), "other")
    if result is not None and hasattr(result, "kind"):
        attrs["rows"] = (len(result.rows) if result.kind == "rows"
                         else result.rows_inserted)


def _note_summary(attrs, args, kwargs, result):
    if result is not None:
        attrs["et_rows"] = result.et_errors
        attrs["uv_rows"] = result.uv_errors


def _note_outcome(attrs, args, kwargs, result):
    if result is not None:
        attrs["splits"] = result.splits
        attrs["statements"] = result.statements
        attrs["errors"] = result.tuple_errors + result.range_errors


def _note_packet(attrs, args, kwargs, result):
    if result is not None:
        cursor, chunk_no = args[0], args[1]
        attrs["rows"] = max(0, min(
            cursor.chunk_rows,
            cursor.total_rows - chunk_no * cursor.chunk_rows))


#: one line per wrapped call: span name, target, what to note, and how
#: the call is special ("materialize" a generator so its work is timed;
#: "compile_fn" times the callable passed as the last argument).
HOOKS = (
    ("client.run_import", "repro.legacy.client:LegacyEtlClient.run_import", None, None),
    ("client.run_export", "repro.legacy.client:LegacyEtlClient.run_export", None, None),
    (CLIENT_REQUEST, "repro.legacy.protocol:MessageChannel.request", _note_request, None),
    ("legacy.client.split", "repro.legacy.client:split_into_chunks", None, None),
    ("legacy.protocol.encode", "repro.legacy.protocol:Message.to_bytes", _note_to_bytes, None),
    ("legacy.protocol.frame", "repro.legacy.protocol:Coalescer.feed", None, "materialize"),
    ("legacy.datafmt.decode", "repro.legacy.datafmt:RecordFormat.decode_records", None, None),
    ("legacy.datafmt.encode", "repro.legacy.datafmt:RecordFormat.encode_records", None, None),
    ("legacy.datafmt.encode", "repro.legacy.codec:CompiledVartextFormat.encode_records", None, None),
    ("legacy.datafmt.encode", "repro.legacy.codec:CompiledBinaryFormat.encode_records", None, None),
    ("core.frontend.connect", "repro.net:Listener.connect", None, None),
    ("core.frontend.connect", "repro.net_tcp:TcpListener.connect", None, None),
    (GATEWAY, "repro.core.gateway:HyperQNode.handle_message", _note_handle, None),
    ("core.credits.acquire", "repro.core.credits:CreditManager.acquire", None, None),
    ("core.pipeline.submit", "repro.core.pipeline:AcquisitionPipeline.submit_chunk", _note_chunk_seq, None),
    ("core.pipeline.drain", "repro.core.pipeline:AcquisitionPipeline.drain", None, None),
    ("core.converter.convert", "repro.core.converter:DataConverter.convert", _note_convert, None),
    ("core.filewriter.append", "repro.core.filewriter:FileWriter.append", _note_staged, None),
    ("core.filewriter.flush", "repro.core.filewriter:FileWriter.flush", _note_staged, None),
    ("cdw.bulkloader.upload", "repro.cdw.bulkloader:CloudBulkLoader.upload_file", _note_upload, None),
    ("cdw.bulkloader.upload", "repro.cdw.bulkloader:CloudBulkLoader.upload_bytes", _note_upload, None),
    ("cdw.bulkloader.fetch", "repro.cdw.bulkloader:CloudBulkLoader.fetch_decoded", None, None),
    ("cdw.cloudstore.put", "repro.cdw.cloudstore:CloudStore.put_blob", None, None),
    ("cdw.cloudstore.get", "repro.cdw.cloudstore:CloudStore.get_blob", None, None),
    ("cdw.engine.execute", "repro.cdw.engine:CdwEngine.execute", _note_statement, None),
    ("cdw.engine.execute", "repro.cdw.engine:CdwEngine.query", _note_statement, None),
    ("core.beta.apply_dml", "repro.core.beta:Beta.apply_dml", _note_summary, None),
    ("core.beta.apply_range", "repro.core.beta:ApplyRun.apply_seq_range", None, None),
    ("core.beta.finish", "repro.core.beta:ApplyRun.finish", _note_summary, None),
    ("core.errorhandling.apply", "repro.core.errorhandling:AdaptiveErrorHandler.apply", _note_outcome, None),
    ("plancache.lookup", "repro.plancache:PlanCache.get_or_compile", None, "compile_fn"),
    ("resilience.checkpoint.append", "repro.resilience.checkpoint:CheckpointJournal.record_*", None, None),
    ("resilience.checkpoint.compact", "repro.resilience.checkpoint:CheckpointJournal.compact", None, None),
    ("resilience.checkpoint.close", "repro.resilience.checkpoint:CheckpointJournal.close", None, None),
    ("core.tdfcursor.packet", "repro.core.tdfcursor:TdfCursor.packet", _note_packet, None),
)


class Span:
    """One timed call.  ``parent`` is a Span or None."""

    __slots__ = ("name", "start", "end", "thread", "parent", "job",
                 "attrs", "failed", "child_s")

    def __init__(self, name, thread, parent, job):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.job = job
        self.attrs = {}
        self.failed = None
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.rpartition(".")[0]

    def outermost_of_layer(self) -> bool:
        """True unless an enclosing span belongs to the same layer."""
        layer, up = self.layer, self.parent
        while up is not None:
            if up.layer == layer:
                return False
            up = up.parent
        return True


class Tracer:
    """Installs the hooks and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        #: id of the unit (job or micro-batch) now running; the load
        #: generator is a closed loop, so one unit is open at a time.
        self.job = -1
        self.missing: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, original, note, special):
        local, spans = self._local, self.spans

        def call(args, kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, threading.get_ident(),
                        stack[-1] if stack else None, self.job)
            stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if special == "materialize":
                    result = list(result)
                return result
            except BaseException as exc:
                span.failed = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                if note is not None:
                    note(span.attrs, args, kwargs, result)
                spans.append(span)

        if special == "compile_fn":
            @functools.wraps(original)
            def wrapper(self_, key, compile_fn):
                timed = self._wrap("plancache.compile", compile_fn,
                                   None, None)
                return call((self_, key, timed), {})
        elif special == "materialize":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return iter(call(args, kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return call(args, kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _targets(target: str):
        """Resolve ``module:Class.method`` / ``module:function`` to
        ``(owner, attribute)`` pairs; a trailing ``*`` globs methods."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return []
        *classes, attribute = path.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
            if owner is None:
                return []
        if attribute.endswith("*"):
            names = [n for n in vars(owner) if n.startswith(attribute[:-1])]
        else:
            names = [attribute]
        return [(owner, n) for n in names
                if callable(vars(owner).get(n))
                and not isinstance(vars(owner).get(n), type)]

    def install(self) -> None:
        """Swap every hook in (idempotent until :meth:`uninstall`)."""
        if self._installed:
            return
        self.missing = []
        for name, target, note, special in HOOKS:
            found = self._targets(target)
            if not found:
                self.missing.append(target)
            for owner, attribute in found:
                original = vars(owner)[attribute]
                setattr(owner, attribute,
                        self._wrap(name, original, note, special))
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, parents by line index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span.name, "start": span.start, "end": span.end,
                    "thread": span.thread,
                    "parent": index.get(id(span.parent), -1),
                    "job_id": span.job}
                if span.failed:
                    record["failed"] = span.failed
                record.update(span.attrs)
                handle.write(json.dumps(record) + "\n")


# -- the ledger ---------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _phases(unit: Span, requests: list[Span]) -> dict[str, float]:
    """Split one unit's wall into client phases; sums to its duration.

    ``requests`` are the unit's own ``client.request`` spans.
    """
    control = {s.attrs.get("kind"): s for s in requests if s.parent is unit}
    phases = dict.fromkeys(
        ("begin", "send", "apply", "end", "fetch", "reencode"), 0.0)
    if unit.name == "client.run_import":
        begin, apply_, end = (control.get(k) for k in
                              ("BEGIN_LOAD", "APPLY_DML", "END_LOAD"))
        if begin and apply_ and end:
            phases.update(begin=begin.duration,
                          send=apply_.start - begin.end,
                          apply=apply_.duration, end=end.duration)
    else:
        begin = control.get("BEGIN_EXPORT")
        fetched = [s.end for s in requests
                   if s.attrs.get("kind") == "EXPORT_FETCH"]
        if begin and fetched:
            phases.update(begin=begin.duration,
                          fetch=max(fetched) - begin.end,
                          reencode=unit.end - max(fetched))
    phases["other"] = unit.duration - sum(phases.values())
    return phases


def ledger(spans: list[Span], traced_walls: list[float],
           untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics, each the mean per traced unit.

    ``*_s`` metrics are seconds per unit, counters are calls/rows/bytes
    per unit; with identical inputs the counters repeat exactly.
    """
    units = [s for s in spans if s.name in UNIT_SPANS and s.job >= 0]
    count = max(len(units), 1)
    # A unit is what the client timed: calls made around it under the
    # same job id (stack build, DDL, the oracle's own query) are not it.
    window = {u.job: (u.start, u.end) for u in units}
    spans = [s for s in spans if s.job in window
             and window[s.job][0] <= s.start <= window[s.job][1]]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name, value=lambda s: s.duration, where=lambda s: True):
        return sum(value(s) for s in by_name[name] if where(s)) / count

    def busy(*names):
        return sum(total(n, where=Span.outermost_of_layer) for n in names)

    def calls(name, where=lambda s: True):
        return total(name, lambda s: 1, where)

    def attr(name, key, where=lambda s: True):
        return total(name, lambda s: s.attrs.get(key, 0), where)

    out: dict[str, float] = {}

    requests = defaultdict(list)
    for span in by_name[CLIENT_REQUEST]:
        requests[span.job].append(span)
    phase_sums = defaultdict(float)
    for unit in units:
        for phase, seconds in _phases(unit, requests[unit.job]).items():
            phase_sums[phase] += seconds
    for phase in ("begin", "send", "apply", "end", "fetch", "reencode",
                  "other"):
        out[f"phase.{phase}_s"] = phase_sums[phase] / count

    out["legacy.client.split_s"] = total("legacy.client.split")
    out["legacy.protocol.encode_s"] = total("legacy.protocol.encode")
    out["legacy.protocol.frame_s"] = total("legacy.protocol.frame")
    out["legacy.protocol.messages"] = calls("legacy.protocol.encode")
    out["legacy.protocol.bytes"] = attr("legacy.protocol.encode", "bytes")
    out["legacy.datafmt.decode_s"] = busy("legacy.datafmt.decode")
    out["legacy.datafmt.encode_s"] = busy("legacy.datafmt.encode")

    out["core.frontend.rtt_overhead_s"] = (
        total(CLIENT_REQUEST) - total(GATEWAY))
    out["core.frontend.connects"] = calls("core.frontend.connect")

    for metric in sorted(set(_GATEWAY_KINDS.values())):
        out[f"core.gateway.{metric}"] = total(
            GATEWAY,
            where=lambda s, m=metric: _GATEWAY_KINDS.get(
                s.attrs.get("kind")) == m)
    out["core.gateway.self_s"] = total(GATEWAY, lambda s: s.self_s)
    out["core.gateway.messages"] = calls(GATEWAY)
    out["core.gateway.errors"] = (
        calls(GATEWAY, lambda s: s.failed is not None)
        + calls("legacy.protocol.encode",
                lambda s: s.attrs.get("kind") == "ERROR"))

    out["core.credits.wait_s"] = total("core.credits.acquire")
    out["core.credits.acquires"] = calls("core.credits.acquire")
    out["core.credits.waits"] = calls(
        "core.credits.acquire", lambda s: s.duration > 0.0005)

    out["core.pipeline.submit_s"] = total("core.pipeline.submit")
    out["core.pipeline.drain_s"] = total("core.pipeline.drain")
    submitted = {(s.job, s.attrs.get("chunk_seq")): s.end
                 for s in by_name["core.pipeline.submit"]}
    out["core.pipeline.convert_queue_wait_s"] = sum(
        max(0.0, s.start - submitted.get(
            (s.job, s.attrs.get("chunk_seq")), s.start))
        for s in by_name["core.converter.convert"]) / count

    convert = "core.converter.convert"
    out["core.converter.busy_s"] = total(convert)
    out["core.converter.chunks"] = calls(convert)
    out["core.converter.rows"] = attr(convert, "rows")
    out["core.converter.bytes_in"] = attr(convert, "bytes_in")
    out["core.converter.bytes_out"] = attr(convert, "bytes_out")
    out["core.converter.rejected_rows"] = attr(convert, "rejected")

    out["core.filewriter.busy_s"] = busy("core.filewriter.append",
                                         "core.filewriter.flush")
    out["core.filewriter.files"] = (attr("core.filewriter.append", "files")
                                    + attr("core.filewriter.flush", "files"))
    out["core.filewriter.bytes"] = (attr("core.filewriter.append", "bytes")
                                    + attr("core.filewriter.flush", "bytes"))

    upload = "cdw.bulkloader.upload"
    out["cdw.bulkloader.busy_s"] = busy(upload, "cdw.bulkloader.fetch")
    out["cdw.bulkloader.files"] = attr(
        upload, "files", Span.outermost_of_layer)
    out["cdw.bulkloader.bytes"] = attr(
        upload, "bytes", Span.outermost_of_layer)
    out["cdw.cloudstore.put_s"] = total("cdw.cloudstore.put")
    out["cdw.cloudstore.get_s"] = total("cdw.cloudstore.get")

    execute = "cdw.engine.execute"

    def statements(kind):
        return lambda s: (s.attrs.get("kind") == kind
                          and s.outermost_of_layer())

    for kind in ("copy", "dml", "ddl", "select"):
        out[f"cdw.engine.{kind}_s"] = total(execute, where=statements(kind))
    out["cdw.engine.copy_rows"] = attr(execute, "rows", statements("copy"))
    out["cdw.engine.dml_statements"] = calls(execute, statements("dml"))
    out["cdw.engine.dml_failed"] = calls(
        execute, lambda s: statements("dml")(s)
        and s.failed == "BulkExecutionError")
    out["cdw.engine.ddl_statements"] = calls(execute, statements("ddl"))
    out["cdw.engine.select_rows"] = attr(
        execute, "rows", statements("select"))

    beta = ("core.beta.apply_dml", "core.beta.apply_range",
            "core.beta.finish")
    out["core.beta.apply_s"] = busy(*beta)
    out["core.beta.self_s"] = sum(
        total(n, lambda s: s.self_s)
        for n in beta + ("core.errorhandling.apply",))
    # apply_dml reports the same summary finish() returned inside it.
    for key in ("et_rows", "uv_rows"):
        out[f"core.beta.{key}"] = attr("core.beta.finish", key)

    # An eager-apply job calls the handler once per durable prefix with
    # one cumulative outcome, so the last call of a job carries its totals.
    last = {}
    for span in by_name["core.errorhandling.apply"]:
        last[span.job] = span
    splits = sum(s.attrs.get("splits", 0) for s in last.values())
    errors = sum(s.attrs.get("errors", 0) for s in last.values())
    issued = sum(s.attrs.get("statements", 0) for s in last.values())
    out["core.errorhandling.splits"] = splits / count
    out["core.errorhandling.statements_per_error"] = (
        issued / errors if errors else 0.0)

    lookups = calls("plancache.lookup")
    out["plancache.misses"] = calls("plancache.compile")
    out["plancache.hits"] = lookups - out["plancache.misses"]
    out["plancache.compile_s"] = total("plancache.compile")

    journal = ("resilience.checkpoint.append",
               "resilience.checkpoint.compact",
               "resilience.checkpoint.close")
    out["resilience.checkpoint.busy_s"] = busy(*journal)
    out["resilience.checkpoint.appends"] = calls(journal[0])
    out["resilience.checkpoint.compactions"] = calls(journal[1])

    packet = "core.tdfcursor.packet"
    out["core.tdfcursor.busy_s"] = total(packet)
    out["core.tdfcursor.packets"] = calls(
        packet, lambda s: "rows" in s.attrs)
    out["core.tdfcursor.rows"] = attr(packet, "rows")

    wall = sum(u.duration for u in units)
    by_job = defaultdict(list)
    for span in spans:
        if span.name not in UNIT_SPANS and span.name != CLIENT_REQUEST:
            by_job[span.job].append((span.start, span.end))
    named = sum(_covered(by_job[u.job], u.start, u.end) for u in units)
    out["ledger.unattributed_pct"] = (
        100.0 * (wall - named) / wall if wall else 0.0)
    out["ledger.trace_overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
        - 1.0)
    out["ledger.spans"] = len(spans) / count
    return out
