"""The four benchmark workloads: input generation, job loops, oracles.

Everything the gateway sees is bytes generated here from ``--seed``; the
expected outcome of every job is computed here too, from those same
bytes (never from ``repro.workloads``' advisory ``expected_*`` fields).
Each workload drives the unmodified :class:`LegacyEtlClient` against a
:class:`HyperQNode` built with ``HyperQConfig()`` defaults.

A workload exposes ``setup()`` (generate + build + warm up),
``run_unit()`` (one timed job or micro-batch, returning a
:class:`Unit`), ``finish()`` (end-of-run oracle) and ``teardown()``.
"""

from __future__ import annotations

import datetime
import gc
import hashlib
import random
import string
import sys
import time
import traceback
from dataclasses import dataclass

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.config import HyperQConfig
from repro.core.gateway import HyperQNode
from repro.legacy.client import ExportJobSpec, ImportJobSpec, LegacyEtlClient
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.net_tcp import TcpListener
from repro.stream import StreamSession

_ALPHABET = string.ascii_letters
_POOL_CHARS = 8192
#: bytes of a row outside PAYLOAD (REC_ID 8 + NAME 10 + DATE 10 +
#: three delimiters + newline, rounded as the repo's generator does).
_ROW_OVERHEAD = 36


@dataclass
class Unit:
    """One timed operation as the client observed it."""

    wall_s: float
    cpu_s: float
    rows: int
    ok: bool


@dataclass
class Table:
    """DDL, DML and record layout of one 4-column target table."""

    name: str
    ddl: str
    apply_sql: str
    layout: Layout

    @property
    def et(self) -> str:
        return f"{self.name}_ET"

    @property
    def uv(self) -> str:
        return f"{self.name}_UV"


def make_table(name: str, payload_width: int) -> Table:
    """The Figure 7/8/11 table: key, name, date (cast on apply), filler."""
    layout = Layout(f"{name.split('.')[-1].lower()}_layout", [
        FieldDef("REC_ID", parse_type("varchar(12)")),
        FieldDef("REC_NAME", parse_type("varchar(40)")),
        FieldDef("JOIN_DATE", parse_type("varchar(10)")),
        FieldDef("PAYLOAD", parse_type(f"varchar({payload_width + 8})")),
    ])
    ddl = (f"CREATE TABLE {name} (REC_ID VARCHAR(12) NOT NULL, "
           "REC_NAME VARCHAR(40), JOIN_DATE DATE, "
           f"PAYLOAD VARCHAR({payload_width + 8}), UNIQUE (REC_ID))")
    apply_sql = (f"insert into {name} values (trim(:REC_ID), "
                 "trim(:REC_NAME), cast(:JOIN_DATE as DATE format "
                 "'YYYY-MM-DD'), :PAYLOAD)")
    return Table(name, ddl, apply_sql, layout)


def generate_rows(rng: random.Random, rows: int, row_bytes: int,
                  bad_date: float = 0.0, dup: float = 0.0,
                  short: float = 0.0) -> list[str]:
    """VARTEXT lines ``R0000042|name-01234|2014-03-09|<payload>``.

    ``bad_date`` rows fail the DATE cast on apply (ET), ``dup`` rows
    repeat the key of an earlier clean row (UV), ``short`` rows miss a
    field and are rejected during acquisition (ET).  Each rate marks
    exactly ``round(rate * rows)`` rows: every seed hands the job the
    same number of errors to isolate and moves only their places, so
    runs on different seeds measure the same amount of work.
    """
    width = max(row_bytes - _ROW_OVERHEAD, 4)
    pool = "".join(rng.choices(_ALPHABET, k=_POOL_CHARS))
    flaws: dict[int, str] = {}
    counts = {"bad_date": round(bad_date * rows), "dup": round(dup * rows),
              "short": round(short * rows)}
    places = rng.sample(range(1, rows), sum(counts.values()))
    for flaw, count in counts.items():
        for _ in range(count):
            flaws[places.pop()] = flaw
    lines = []
    for i in range(rows):
        flaw = flaws.get(i)
        rec = i
        if flaw == "dup":
            rec = rng.randrange(i)
            while rec in flaws:     # row 0 is always clean
                rec = rng.randrange(i)
        date = (f"{2000 + rng.randrange(25):04d}-"
                f"{1 + rng.randrange(12):02d}-{1 + rng.randrange(28):02d}")
        if flaw == "bad_date":
            date = "not-a-date"
        head = f"R{rec:07d}|name-{rng.randrange(10_000):05d}|{date}"
        if flaw == "short":
            lines.append(head)
            continue
        offset = rng.randrange(_POOL_CHARS - width)
        lines.append(f"{head}|{pool[offset:offset + width]}")
    return lines


def _valid_date(text: str) -> bool:
    try:
        datetime.date.fromisoformat(text)
    except ValueError:
        return False
    return len(text) == 10


def load_oracle(data: bytes) -> tuple[set[str], int, int]:
    """Legacy per-tuple semantics, from the input bytes alone.

    A record needs 4 fields and a valid date or it lands in ET; of the
    surviving records the first occurrence of a key is inserted and
    later ones land in UV.  Returns ``(inserted ids, et rows, uv rows)``.
    """
    inserted: set[str] = set()
    et = uv = 0
    for line in data.decode("utf-8").splitlines():
        fields = line.split("|")
        if len(fields) != 4 or not _valid_date(fields[2]):
            et += 1
        elif fields[0].strip() in inserted:
            uv += 1
        else:
            inserted.add(fields[0].strip())
    return inserted, et, uv


def unordered_digest(data: bytes) -> str:
    """SHA-1 of the records sorted, so scan order may change freely."""
    return hashlib.sha1(b"\n".join(sorted(data.splitlines()))).hexdigest()


class Stack:
    """Engine + store + a started default-config node."""

    def __init__(self, listener=None):
        self.store = CloudStore()
        self.engine = CdwEngine(store=self.store)
        self.node = HyperQNode(self.engine, self.store,
                               config=HyperQConfig(),
                               listener=listener).start()

    def client(self) -> LegacyEtlClient:
        """A logged-on legacy client on a fresh control session."""
        client = LegacyEtlClient(self.node.connect)
        client.logon("cdw-host", "etl", "secret")
        return client

    def close(self) -> None:
        self.node.stop()


def _timed(operation):
    """Run ``operation``; returns (result or None, wall, cpu, raised)."""
    gc.collect()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        result, raised = operation(), False
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result, raised = None, True
    wall = time.perf_counter() - start
    return result, wall, time.process_time() - cpu0, raised


class LoadWorkload:
    """``bulk_load`` / ``dirty_load``: one import job per fresh stack."""

    #: a run lasts at least this many units.
    min_units = 16
    #: timed units done when peak RSS is read; 0 keeps the reading taken
    #: after the first set-up, when the process has run exactly one job
    #: (later jobs on fresh stacks add 100-200 MB of unreturned heap in
    #: steps that differ from run to run).
    rss_units = 0
    #: untimed units between set-up and the timed section.
    ramp_units = 0
    #: units in one block of the traced pass.
    trace_block = 1
    #: units are batches of one continuous feed, not whole jobs.
    one_feed = False

    def __init__(self, name: str, seed: int, rows: int, row_bytes: int,
                 chunk_bytes: int, **error_rates):
        self.name = name
        self.seed = seed
        self.rows = rows
        self.row_bytes = row_bytes
        self.chunk_bytes = chunk_bytes
        self.error_rates = error_rates
        self.table = make_table("PROD.FACT", max(row_bytes - _ROW_OVERHEAD, 4))
        self.data = b""
        self._oracle = None
        self.sizes = {"rows": rows, "row_bytes": row_bytes, "sessions": 2,
                      "chunk_bytes": chunk_bytes, **error_rates}

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        lines = generate_rows(rng, self.rows, self.row_bytes,
                              **self.error_rates)
        self.data = ("\n".join(lines) + "\n").encode("utf-8")
        self.run_unit()

    def kernel_data(self) -> tuple[Layout, bytes]:
        """Layout and input bytes for the single-threaded layer drives."""
        return self.table.layout, self.data

    def run_unit(self) -> Unit:
        table = self.table
        stack = Stack()
        try:
            client = stack.client()
            client.execute_sql(table.ddl)
            spec = ImportJobSpec(
                target_table=table.name, et_table=table.et,
                uv_table=table.uv, layout=table.layout,
                apply_sql=table.apply_sql, data=self.data, sessions=2,
                chunk_bytes=self.chunk_bytes)
            result, wall, cpu, raised = _timed(
                lambda: client.run_import(spec))
            ok = not raised and self._check(result, stack.engine)
            client.logoff()
        finally:
            stack.close()
        return Unit(wall, cpu, self.rows, ok)

    def _check(self, result, engine) -> bool:
        if self._oracle is None:
            self._oracle = load_oracle(self.data)
        ids, et, uv = self._oracle
        loaded = {row[0] for row in engine.query(
            f"SELECT REC_ID FROM {self.table.name}")}
        return (result.rows_inserted == len(ids) and loaded == ids
                and result.et_errors == et and result.uv_errors == uv
                and result.rows_inserted + et + uv == self.rows)

    def finish(self) -> bool:
        return True

    def teardown(self) -> None:
        pass


class ExportWorkload:
    """``export_scan``: repeated exports of a table loaded in set-up."""

    name = "export_scan"
    min_units = 16
    rss_units = 0
    ramp_units = 0
    trace_block = 1
    one_feed = False

    def __init__(self, seed: int, rows: int, row_bytes: int):
        self.seed = seed
        self.rows = rows
        self.row_bytes = row_bytes
        self.table = make_table("PROD.SCAN", max(row_bytes - _ROW_OVERHEAD, 4))
        self.data = b""
        self._digest = None
        self.stack = None
        self.sizes = {"rows": rows, "row_bytes": row_bytes, "sessions": 2}

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        lines = generate_rows(rng, self.rows, self.row_bytes)
        self.data = ("\n".join(lines) + "\n").encode("utf-8")
        table = self.table
        self.stack = Stack()
        client = self.stack.client()
        client.execute_sql(table.ddl)
        loaded = client.run_import(ImportJobSpec(
            target_table=table.name, et_table=table.et, uv_table=table.uv,
            layout=table.layout, apply_sql=table.apply_sql, data=self.data,
            sessions=2, chunk_bytes=256 * 1024))
        client.logoff()
        if loaded.rows_inserted != self.rows:
            raise RuntimeError(
                f"set-up load inserted {loaded.rows_inserted} of "
                f"{self.rows} rows")
        self.run_unit()

    def kernel_data(self) -> tuple[Layout, bytes]:
        return self.table.layout, self.data

    def run_unit(self) -> Unit:
        # One logon per export, as a legacy export script runs: the
        # gateway keeps an export's result set until its control
        # session closes, so a shared session would grow by one result
        # set per unit and the run would measure how far it got.
        client = self.stack.client()
        spec = ExportJobSpec(
            select_sql=f"SELECT * FROM {self.table.name}", sessions=2)
        result, wall, cpu, raised = _timed(lambda: client.run_export(spec))
        client.logoff()
        if self._digest is None:
            self._digest = unordered_digest(self.data)
        ok = (not raised and result.rows_exported == self.rows
              and unordered_digest(result.data) == self._digest)
        return Unit(wall, cpu, self.rows, ok)

    def finish(self) -> bool:
        return True

    def teardown(self) -> None:
        if self.stack is not None:
            self.stack.close()
            self.stack = None


@dataclass
class _Batch:
    """What ``StreamSession.run_batch`` needs of a micro-batch."""

    seq: int
    layout: Layout
    data: bytes
    apply_sql: str


class StreamWorkload:
    """``stream_feed``: one closed-loop feed of small micro-batches."""

    name = "stream_feed"
    one_feed = True
    _TAILS = 509

    def __init__(self, seed: int, rows_per_batch: int, row_bytes: int,
                 warmup_batches: int, ramp_units: int, min_units: int,
                 trace_block: int):
        self.seed = seed
        self.ramp_units = ramp_units
        self.min_units = self.rss_units = min_units
        self.trace_block = trace_block
        self.rows_per_batch = rows_per_batch
        self.row_bytes = row_bytes
        self.warmup_batches = warmup_batches
        self.table = make_table("PROD.STREAM",
                                max(row_bytes - _ROW_OVERHEAD, 4))
        self.tails: list[str] = []
        self.stack = None
        self.session = None
        self.batches_sent = 0
        self.batches_committed = 0
        self.sizes = {"rows_per_batch": rows_per_batch,
                      "row_bytes": row_bytes, "sessions": 1,
                      "warmup_batches": warmup_batches,
                      "ramp_batches": ramp_units,
                      "transport": "tcp-loopback"}

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        # Every row is a sequential key plus one of a few hundred
        # seeded tails, so a batch costs microseconds to build inside
        # the closed loop and the feed never runs out of input.
        self.tails = [line[8:] + "\n" for line in
                      generate_rows(rng, self._TAILS, self.row_bytes)]
        self.stack = Stack(listener=TcpListener())
        self.session = StreamSession(
            self.stack.node.connect, feed="bench_feed",
            target_table=self.table.name, sessions=1,
            chunk_bytes=64 * 1024).open()
        self.session.client.execute_sql(self.table.ddl)
        self.batches_sent = self.batches_committed = 0
        for _ in range(self.warmup_batches):
            self.run_unit()

    def _batch(self, seq: int) -> _Batch:
        first = seq * self.rows_per_batch
        tails, count = self.tails, len(self.tails)
        data = "".join(
            f"R{rec:07d}{tails[rec % count]}"
            for rec in range(first, first + self.rows_per_batch))
        return _Batch(seq, self.table.layout, data.encode("utf-8"),
                      self.table.apply_sql)

    def kernel_data(self) -> tuple[Layout, bytes]:
        batches = 20_000 // self.rows_per_batch + 1
        return self.table.layout, b"".join(
            self._batch(seq).data for seq in range(batches))

    def run_unit(self) -> Unit:
        batch = self._batch(self.batches_sent)
        self.batches_sent += 1
        cpu0 = time.process_time()
        try:
            result = self.session.run_batch(batch)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Unit(0.0, time.process_time() - cpu0,
                        self.rows_per_batch, False)
        ok = (result.committed
              and result.rows_inserted == self.rows_per_batch
              and result.et_errors == 0 and result.uv_errors == 0)
        self.batches_committed += bool(result.committed)
        return Unit(result.latency_s, time.process_time() - cpu0,
                    self.rows_per_batch, ok)

    def finish(self) -> bool:
        count = self.stack.engine.query(
            f"SELECT COUNT(*) FROM {self.table.name}")[0][0]
        return (self.batches_committed == self.batches_sent
                and count == self.batches_sent * self.rows_per_batch)

    def teardown(self) -> None:
        if self.stack is not None:
            self.session.close()
            self.stack.close()
            self.stack = self.session = None


def make(name: str, seed: int, quick: bool = False):
    """Build a workload by name; ``quick`` is 1/10 size, not for claims."""
    scale = 10 if quick else 1
    if name == "bulk_load":
        return LoadWorkload(name, seed, 50_000 // scale, 500, 256 * 1024)
    if name == "dirty_load":
        return LoadWorkload(name, seed, 8_000 // scale, 200, 64 * 1024,
                            bad_date=0.02, dup=0.005, short=0.002)
    if name == "stream_feed":
        return StreamWorkload(
            seed, 100 // scale, 120, warmup_batches=50 // scale,
            ramp_units=350 // scale, min_units=1000 // scale,
            trace_block=100 // scale)
    if name == "export_scan":
        return ExportWorkload(seed, 50_000 // scale, 200)
    raise ValueError(f"unknown workload {name!r}")
