"""Seeded generation of ETL input files with controllable shape.

A :class:`Workload` bundles everything one load job needs: the input file
bytes (VARTEXT), the record layout, the target-table DDL, and the job DML
(in the legacy dialect, with host variables).  Generation is fully
deterministic given the seed.

Error injection (Figure 11):

- ``error_rate`` — fraction of rows whose JOIN_DATE is garbage, failing
  the ``CAST .. AS DATE FORMAT`` during the application phase;
- ``dup_rate`` — fraction of rows that duplicate an earlier REC_ID,
  violating the target's uniqueness constraint;
- ``field_count_error_rate`` — fraction of rows with a missing field,
  rejected during acquisition.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from repro.legacy.datafmt import FormatSpec
from repro.legacy.types import FieldDef, Layout, parse_type

__all__ = ["Workload", "TenantWorkload", "DirtyWorkload", "make_workload",
           "wide_workload", "multi_tenant_workloads", "dirty_workload"]

_ALPHABET = string.ascii_uppercase + string.ascii_lowercase

#: bytes of per-row framing overhead outside the PAYLOAD field
#: (REC_ID ~8 + NAME ~12 + JOIN_DATE 10 + three delimiters + newline).
_BASE_ROW_OVERHEAD = 36


@dataclass
class Workload:
    """One generated load job."""

    name: str
    data: bytes
    layout: Layout
    target_table: str
    et_table: str
    uv_table: str
    ddl: str
    apply_sql: str
    format_spec: FormatSpec = field(
        default_factory=lambda: FormatSpec("vartext", "|"))
    rows: int = 0
    expected_good_rows: int = 0
    expected_date_errors: int = 0
    expected_dup_errors: int = 0
    expected_field_count_errors: int = 0

    @property
    def bytes_total(self) -> int:
        return len(self.data)

    @property
    def avg_row_bytes(self) -> float:
        return len(self.data) / max(self.rows, 1)


_POOL_SIZE = 8192


def _make_pool(rng: random.Random) -> str:
    """A reusable slab of random characters; payloads are slices of it.

    Slicing a pre-generated pool is ~100x faster than per-character
    generation and keeps payloads incompressible enough for the
    compression ablation to stay honest.
    """
    return "".join(rng.choices(_ALPHABET, k=_POOL_SIZE))


def _payload(rng: random.Random, pool: str, width: int) -> str:
    if width <= 0:
        return ""
    if width >= len(pool):
        repeats = width // len(pool) + 1
        return (pool * repeats)[:width]
    offset = rng.randrange(len(pool) - width)
    return pool[offset:offset + width]


def make_workload(rows: int, row_bytes: int = 500, seed: int = 7,
                  error_rate: float = 0.0, dup_rate: float = 0.0,
                  field_count_error_rate: float = 0.0,
                  table: str = "PROD.FACT",
                  name: str = "load") -> Workload:
    """Generate the standard 4-column load used by Figures 7, 8 and 11.

    ``row_bytes`` controls the *average* encoded row width by sizing the
    PAYLOAD filler column.
    """
    if rows < 1:
        raise ValueError("rows must be positive")
    payload_width = max(row_bytes - _BASE_ROW_OVERHEAD, 4)
    rng = random.Random(seed)
    pool = _make_pool(rng)
    lines: list[str] = []
    date_errors = dup_errors = field_errors = 0
    for i in range(rows):
        rec_id = f"R{i:07d}"
        roll = rng.random()
        if dup_rate > 0 and roll < dup_rate and i > 0:
            rec_id = f"R{rng.randrange(i):07d}"
            dup_errors += 1
        name_value = f"name-{rng.randrange(10_000):05d}"
        year = 2000 + rng.randrange(25)
        month = 1 + rng.randrange(12)
        day = 1 + rng.randrange(28)
        date_value = f"{year:04d}-{month:02d}-{day:02d}"
        if error_rate > 0 and rng.random() < error_rate:
            date_value = "not-a-date"
            date_errors += 1
        payload = _payload(rng, pool, payload_width)
        if field_count_error_rate > 0 \
                and rng.random() < field_count_error_rate:
            lines.append(f"{rec_id}|{name_value}|{date_value}")
            field_errors += 1
            continue
        lines.append(f"{rec_id}|{name_value}|{date_value}|{payload}")
    data = ("\n".join(lines) + "\n").encode("utf-8")

    layout = Layout(f"{name}_layout", [
        FieldDef("REC_ID", parse_type("varchar(12)")),
        FieldDef("REC_NAME", parse_type("varchar(40)")),
        FieldDef("JOIN_DATE", parse_type("varchar(10)")),
        FieldDef("PAYLOAD", parse_type(f"varchar({payload_width + 8})")),
    ])
    ddl = (
        f"CREATE TABLE {table} ("
        "REC_ID VARCHAR(12) NOT NULL, "
        "REC_NAME VARCHAR(40), "
        "JOIN_DATE DATE, "
        f"PAYLOAD VARCHAR({payload_width + 8}), "
        "UNIQUE (REC_ID))"
    )
    apply_sql = (
        f"insert into {table} values ("
        "trim(:REC_ID), trim(:REC_NAME), "
        "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'), :PAYLOAD)"
    )
    # A duplicated row that also has a broken date fails on conversion
    # first; the generator avoids that overlap by construction only
    # statistically, so expected numbers are advisory for large runs and
    # exact when rates do not overlap.
    good = rows - date_errors - dup_errors - field_errors
    return Workload(
        name=name, data=data, layout=layout, target_table=table,
        et_table=f"{table}_ET", uv_table=f"{table}_UV",
        ddl=ddl, apply_sql=apply_sql, rows=rows,
        expected_good_rows=good,
        expected_date_errors=date_errors,
        expected_dup_errors=dup_errors,
        expected_field_count_errors=field_errors,
    )


#: parent-dimension values clean rows draw their REGION from.
_DIRTY_REGIONS = ("AA", "BB", "CC", "DD")

#: violation kinds the dirty preset can seed, in profile order.
_DIRTY_KINDS = ("not_null", "range", "regex", "unique", "referential")


@dataclass
class DirtyWorkload:
    """A load job seeded with known data-quality violations.

    Wraps the generated :class:`Workload` with the ground truth the dq
    differential tests and benchmarks need: which 1-based row numbers
    violate which rule (``manifest``), the matching rule-profile
    fragment (``dq_rules``, ready for ``HyperQConfig.dq_profile``), and
    the DDL/DML that seeds the referential parent dimension
    (``setup_sql``, CDW dialect — run it on the engine before the job).
    """

    workload: Workload
    #: rule_id -> sorted tuple of violating 1-based row numbers.
    manifest: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: rule dicts for the profile loader, in routing-priority order.
    dq_rules: list = field(default_factory=list)
    #: statements creating/filling the REGION parent dimension.
    setup_sql: tuple[str, ...] = ()


def dirty_workload(rows: int, row_bytes: int = 160, seed: int = 23,
                   violation_rate: float = 0.01,
                   mix: dict | None = None,
                   table: str = "PROD.DIRTY",
                   name: str = "dirty") -> DirtyWorkload:
    """Generate a load whose rows break dq rules at a known rate.

    Each row makes a single rng roll; with probability
    ``violation_rate`` it is corrupted in exactly one way, drawn from
    ``mix`` (kind -> relative weight over ``not_null``/``range``/
    ``regex``/``unique``/``referential``; default: equal weights).
    Exactly one violation per row keeps the returned ``manifest`` an
    exact per-rule ground truth:

    - ``not_null``  — REC_NAME emitted empty (VARTEXT decodes to NULL);
    - ``range``     — JOIN_DATE set to ``9999-99-99``;
    - ``regex``     — AMOUNT made non-numeric (fails ``^[0-9]+$``);
    - ``unique``    — REC_ID copies an earlier row's REC_ID;
    - ``referential`` — REGION set to a code absent from the parent
      dimension (``PROD.REGION_DIM``).

    With prechecks off, the first three also fail during DML
    application (NOT NULL target column, DATE cast, INT cast) and
    duplicates trip the uniqueness constraint — the Figure 11 recursive
    split path — while referential orphans apply cleanly (the CDW does
    not enforce FKs), so benchmarks comparing final table contents
    should pass a ``mix`` without ``referential``.
    """
    if rows < 1:
        raise ValueError("rows must be positive")
    if not 0.0 <= violation_rate <= 1.0:
        raise ValueError("violation_rate must be within [0, 1]")
    weights_by_kind = dict.fromkeys(_DIRTY_KINDS, 1.0)
    if mix is not None:
        unknown = set(mix) - set(_DIRTY_KINDS)
        if unknown:
            raise ValueError(
                f"unknown violation kinds in mix: {sorted(unknown)}")
        weights_by_kind = {k: float(mix.get(k, 0.0)) for k in _DIRTY_KINDS}
        if sum(weights_by_kind.values()) <= 0:
            raise ValueError("mix needs at least one positive weight")
    kinds = list(_DIRTY_KINDS)
    weights = [weights_by_kind[k] for k in kinds]

    payload_width = max(row_bytes - 60, 4)
    rng = random.Random(seed)
    pool = _make_pool(rng)
    lines: list[str] = []
    manifest: dict[str, list[int]] = {
        "name_required": [], "date_range": [], "amount_digits": [],
        "rec_unique": [], "region_fk": [],
    }
    rule_of_kind = {
        "not_null": "name_required", "range": "date_range",
        "regex": "amount_digits", "unique": "rec_unique",
        "referential": "region_fk",
    }
    first_seen: dict[str, int] = {}
    for i in range(rows):
        rownum = i + 1
        kind = None
        if violation_rate > 0 and rng.random() < violation_rate:
            kind = rng.choices(kinds, weights=weights)[0]
            if kind == "unique" and i == 0:
                kind = None  # nothing earlier to duplicate
        rec_id = f"R{i:07d}"
        name_value = f"name-{rng.randrange(10_000):05d}"
        year = 2000 + rng.randrange(25)
        month = 1 + rng.randrange(12)
        day = 1 + rng.randrange(28)
        date_value = f"{year:04d}-{month:02d}-{day:02d}"
        amount_value = str(rng.randrange(1, 100_000))
        region_value = _DIRTY_REGIONS[rng.randrange(len(_DIRTY_REGIONS))]
        if kind == "not_null":
            name_value = ""
        elif kind == "range":
            date_value = "9999-99-99"
        elif kind == "regex":
            amount_value = f"{rng.randrange(10, 99)}x{rng.randrange(10, 99)}"
        elif kind == "unique":
            rec_id = f"R{rng.randrange(i):07d}"
        elif kind == "referential":
            region_value = "ZZ"
        if kind is not None and kind != "unique":
            manifest[rule_of_kind[kind]].append(rownum)
        # Uniqueness ground truth is the rule's *raw* (solo) verdict:
        # every non-first occurrence of a key violates, regardless of
        # which row the generator intended as the duplicate.  The
        # precheck's routing cascade may route fewer (a duplicate of a
        # row routed by another rule survives) — equivalence tests
        # compare end states, not this manifest.
        if rec_id in first_seen:
            manifest["rec_unique"].append(rownum)
        else:
            first_seen[rec_id] = rownum
        payload = _payload(rng, pool, payload_width)
        lines.append(f"{rec_id}|{name_value}|{date_value}|"
                     f"{amount_value}|{region_value}|{payload}")
    data = ("\n".join(lines) + "\n").encode("utf-8")

    layout = Layout(f"{name}_layout", [
        FieldDef("REC_ID", parse_type("varchar(12)")),
        FieldDef("REC_NAME", parse_type("varchar(40)")),
        FieldDef("JOIN_DATE", parse_type("varchar(10)")),
        FieldDef("AMOUNT", parse_type("varchar(12)")),
        FieldDef("REGION", parse_type("varchar(4)")),
        FieldDef("PAYLOAD", parse_type(f"varchar({payload_width + 8})")),
    ])
    ddl = (
        f"CREATE TABLE {table} ("
        "REC_ID VARCHAR(12) NOT NULL, "
        "REC_NAME VARCHAR(40) NOT NULL, "
        "JOIN_DATE DATE, "
        "AMOUNT INT, "
        "REGION VARCHAR(4), "
        f"PAYLOAD VARCHAR({payload_width + 8}), "
        "UNIQUE (REC_ID))"
    )
    apply_sql = (
        f"insert into {table} values ("
        "trim(:REC_ID), trim(:REC_NAME), "
        "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'), "
        "cast(:AMOUNT as INT), trim(:REGION), :PAYLOAD)"
    )
    parent_table = "PROD.REGION_DIM"
    setup_sql = (
        f"CREATE TABLE {parent_table} (REGION_CODE NVARCHAR(4))",
    ) + tuple(
        f"INSERT INTO {parent_table} VALUES ('{code}')"
        for code in _DIRTY_REGIONS
    )
    dq_rules = [
        {"rule_id": "name_required", "kind": "not_null",
         "column": "REC_NAME"},
        {"rule_id": "date_range", "kind": "range", "column": "JOIN_DATE",
         "min": "1900-01-01", "max": "2099-12-31"},
        {"rule_id": "amount_digits", "kind": "regex", "column": "AMOUNT",
         "pattern": "^[0-9]+$"},
        {"rule_id": "rec_unique", "kind": "unique",
         "columns": ["REC_ID"]},
        {"rule_id": "region_fk", "kind": "referential", "column": "REGION",
         "parent_table": parent_table, "parent_column": "REGION_CODE"},
    ]
    dirty_count = len({r for v in manifest.values() for r in v})
    workload = Workload(
        name=name, data=data, layout=layout, target_table=table,
        et_table=f"{table}_ET", uv_table=f"{table}_UV",
        ddl=ddl, apply_sql=apply_sql, rows=rows,
        expected_good_rows=rows - dirty_count,
    )
    return DirtyWorkload(
        workload=workload,
        manifest={k: tuple(v) for k, v in manifest.items()},
        dq_rules=dq_rules,
        setup_sql=setup_sql,
    )


@dataclass
class TenantWorkload:
    """One tenant's slice of a multi-tenant concurrent workload."""

    tenant: str
    #: this tenant's independent load jobs (distinct target tables).
    workloads: list[Workload] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        """Rows across every script of this tenant."""
        return sum(w.rows for w in self.workloads)


def multi_tenant_workloads(tenants: int = 3, scripts: int = 2,
                           base_rows: int = 200, skew: float = 2.0,
                           seed: int = 7, row_bytes: int = 120,
                           table_prefix: str = "PROD.MT"
                           ) -> list[TenantWorkload]:
    """K tenants × M scripts with skewed sizes — the WLM test preset.

    Tenant ``t`` runs ``scripts`` independent load jobs of
    ``base_rows * skew**t`` rows each (rounded), so tenant 0 is the
    light interactive-style user and the last tenant is the heavy batch
    hog — the contention shape workload management exists for.  Every
    job gets its own target table (``<prefix>_T<t>_S<s>``) and a
    deterministic per-job seed, so concurrent runs verify row counts
    per table without cross-talk.
    """
    if tenants < 1 or scripts < 1:
        raise ValueError("need at least one tenant and one script")
    if skew < 1.0:
        raise ValueError("skew must be >= 1.0 (tenant t gets "
                         "base_rows * skew**t rows)")
    result: list[TenantWorkload] = []
    for t in range(tenants):
        tenant = f"tenant-{t}"
        rows = max(1, int(round(base_rows * skew ** t)))
        jobs = [
            make_workload(
                rows=rows, row_bytes=row_bytes,
                seed=seed + 1000 * t + s,
                table=f"{table_prefix}_T{t}_S{s}",
                name=f"{tenant}-s{s}")
            for s in range(scripts)
        ]
        result.append(TenantWorkload(tenant=tenant, workloads=jobs))
    return result


def wide_workload(rows: int, columns: int = 50, column_width: int = 16,
                  seed: int = 11, table: str = "PROD.WIDE",
                  name: str = "wide") -> Workload:
    """A many-column load like Figure 10's 50-column table."""
    if columns < 2:
        raise ValueError("need at least two columns")
    rng = random.Random(seed)
    pool = _make_pool(rng)
    field_defs = [FieldDef("REC_ID", parse_type("varchar(12)"))]
    field_defs += [
        FieldDef(f"C{i:02d}", parse_type(f"varchar({column_width + 4})"))
        for i in range(1, columns)
    ]
    layout = Layout(f"{name}_layout", field_defs)
    lines = []
    for i in range(rows):
        parts = [f"R{i:07d}"]
        parts += [_payload(rng, pool, column_width)
                  for _ in range(columns - 1)]
        lines.append("|".join(parts))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    ddl_columns = ", ".join(
        f"{f.name} VARCHAR({(f.type.length or 16)})" for f in field_defs)
    ddl = f"CREATE TABLE {table} ({ddl_columns}, UNIQUE (REC_ID))"
    params = ", ".join(f":{f.name}" for f in field_defs)
    apply_sql = f"insert into {table} values ({params})"
    return Workload(
        name=name, data=data, layout=layout, target_table=table,
        et_table=f"{table}_ET", uv_table=f"{table}_UV",
        ddl=ddl, apply_sql=apply_sql, rows=rows,
        expected_good_rows=rows,
    )
