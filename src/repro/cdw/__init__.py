"""The cloud data warehouse (CDW) substrate.

A from-scratch, in-process stand-in for the Synapse-like target system:

- :mod:`repro.cdw.types` — the CDW type system (NVARCHAR, INT, DOUBLE...);
- :mod:`repro.cdw.expressions` — the scalar expression evaluator (shared
  with the reference legacy server, whose SQL semantics coincide at the
  expression level);
- :mod:`repro.cdw.table` — catalog and row storage with optional native
  uniqueness enforcement;
- :mod:`repro.cdw.engine` — the SQL executor.  DML is strictly
  *set-oriented*: a statement either applies completely or aborts with a
  :class:`~repro.errors.BulkExecutionError` that does not identify the
  offending row — the property that motivates Section 7's adaptive error
  handling;
- :mod:`repro.cdw.stagefile` — the CDW's bulk-ingest file formats:
  the staging blocks ``COPY … FORMAT block`` appends column by column,
  and the CSV reader of ``COPY … FORMAT csv`` (both distinguish NULL
  from the empty string, unlike legacy VARTEXT);
- :mod:`repro.cdw.cloudstore` — the simulated cloud object store with an
  optional link-bandwidth model;
- :mod:`repro.cdw.bulkloader` — the AzCopy/`aws s3 cp`-like utility that
  uploads finalized staging files (optionally compressed) to the store.
"""

from repro.cdw.types import CdwType, cdw_type_from_node, cdw_type_from_legacy
from repro.cdw.table import CdwTable, ColumnSpec
from repro.cdw.engine import CdwEngine, CdwResult
from repro.cdw.cloudstore import CloudStore
from repro.cdw.bulkloader import CloudBulkLoader

__all__ = [
    "CdwType", "cdw_type_from_node", "cdw_type_from_legacy",
    "CdwTable", "ColumnSpec", "CdwEngine", "CdwResult",
    "CloudStore", "CloudBulkLoader",
]
