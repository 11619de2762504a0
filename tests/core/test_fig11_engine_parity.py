"""A seeded Fig 11 job on the vector engine vs the row-interpreter oracle.

The adaptive error handler (paper §7) turns statement-level failures
into per-tuple ET/UV records, so whatever error text, field and failing
range the engine reports ends up in those tables.  The vector engine
raises each failure itself instead of re-running the range on the row
interpreter; the tables it leaves behind must be the ones an engine
forced onto its row interpreter (``tests/cdw/oracles.py``) leaves, and
no statement of the job that the vector path serves may have run on the
interpreter instead.
"""

import re

import pytest

from repro.bench.harness import Stack, run_workload_through_hyperq
from repro.cdw import CdwEngine, CloudStore
from repro.core.gateway import HyperQNode
from repro.workloads import make_workload
from tests.cdw.oracles import row_interpreter


def _loaded_stack(interpreter: bool) -> Stack:
    workload = make_workload(rows=1_500, row_bytes=120, seed=1311,
                             error_rate=0.03, dup_rate=0.01)
    assert workload.expected_date_errors and workload.expected_dup_errors
    store = CloudStore()
    engine = CdwEngine(store=store)
    if interpreter:
        row_interpreter(engine)
    stack = Stack(engine=engine, store=store,
                  node=HyperQNode(engine, store).start())
    run_workload_through_hyperq(stack, workload, max_errors=10**9)
    return stack


@pytest.fixture(scope="module")
def stacks():
    """The same dirty job loaded through a vector engine and a forced
    row interpreter."""
    vector, oracle = _loaded_stack(False), _loaded_stack(True)
    yield vector, oracle
    vector.close()
    oracle.close()


@pytest.mark.parametrize(
    "table", ["PROD.FACT", "PROD.FACT_ET", "PROD.FACT_UV"])
def test_tables_are_identical_to_the_row_mode_engines(stacks, table):
    vector, oracle = (list(stack.engine.table(table).rows)
                      for stack in stacks)
    assert vector == oracle
    assert vector, f"{table} is empty: the job seeded nothing to compare"


def test_no_failure_needed_the_row_interpreter(stacks):
    vector, _ = stacks
    job = vector.node.completed_jobs[-1]
    # The job had failing statements (every ET/UV row here is one), and
    # the verdict route applied them all without halving a range.
    assert job.et_errors > 0 and job.uv_errors > 0
    assert job.chunk_retries == 0
    # The ET/UV ``INSERT .. VALUES`` records run on rows and were never
    # vectorizable: they are not fallbacks, and nothing else fell back —
    # the locate pass's SELECTs included.
    assert vector.engine.vector_fallbacks == {"out_of_scope": 0}


def test_fallbacks_surface_in_stats_and_exposition(stacks):
    vector, _ = stacks
    fallbacks = vector.node.stats()["engine_vector_fallbacks"]
    assert fallbacks == vector.engine.vector_fallbacks
    text = vector.node.render_prometheus()
    assert "# TYPE hyperq_engine_vector_fallbacks_total counter" in text
    exposed = {
        match.group(1): float(match.group(2))
        for match in re.finditer(
            r'hyperq_engine_vector_fallbacks_total\{reason="([^"]+)"\} '
            r'(\S+)', text)
    }
    assert exposed == {"out_of_scope": 0.0}
