"""Configuration invariance: tuning knobs must never change *results*.

The paper's tuning parameters (file-size threshold, compression,
parallelism, chunking, credit pool) trade performance; the loaded data
and error tables must be identical under every setting.  These tests
run the same job under disparate configurations and diff the outcomes.
"""

import pytest

from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.workloads import make_workload

CONFIGS = {
    "tiny-files": HyperQConfig(converters=1, filewriters=1, credits=2,
                               file_threshold_bytes=512),
    "wide": HyperQConfig(converters=8, filewriters=4, credits=64,
                         file_threshold_bytes=8 << 20),
    "gzip": HyperQConfig(converters=2, filewriters=2, credits=8,
                         compression="gzip"),
}


def outcome(config: HyperQConfig, sessions: int, chunk_bytes: int):
    workload = make_workload(rows=400, row_bytes=120, seed=77,
                             error_rate=0.05, dup_rate=0.03,
                             table="I.T")
    with build_stack(config=config) as stack:
        metrics = run_workload_through_hyperq(
            stack, workload, sessions=sessions, chunk_bytes=chunk_bytes)
        target = stack.engine.query(
            "SELECT REC_ID, REC_NAME, JOIN_DATE FROM I.T "
            "ORDER BY REC_ID")
        et = stack.engine.query(
            "SELECT SEQNO, ERRCODE FROM I.T_ET ORDER BY SEQNO")
        uv = stack.engine.query(
            "SELECT REC_ID, SEQNO FROM I.T_UV ORDER BY SEQNO")
    return (metrics.rows_inserted, metrics.et_errors,
            metrics.uv_errors), target, et, uv


@pytest.fixture(scope="module")
def reference():
    return outcome(HyperQConfig(), sessions=2, chunk_bytes=4096)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_invariance(name, reference):
    assert outcome(CONFIGS[name], sessions=2, chunk_bytes=4096) == \
        reference


@pytest.mark.parametrize("sessions,chunk_bytes", [
    (1, 128), (4, 128), (8, 997), (3, 10**6),
])
def test_chunking_invariance(sessions, chunk_bytes, reference):
    assert outcome(HyperQConfig(), sessions, chunk_bytes) == reference


def test_unique_emulation_invariance(reference):
    """Native vs emulated uniqueness must agree on the outcome."""
    workload = make_workload(rows=400, row_bytes=120, seed=77,
                             error_rate=0.05, dup_rate=0.03,
                             table="I.T")
    with build_stack(config=HyperQConfig(),
                     native_unique=False) as stack:
        metrics = run_workload_through_hyperq(
            stack, workload, sessions=2, chunk_bytes=4096)
        target = stack.engine.query(
            "SELECT REC_ID, REC_NAME, JOIN_DATE FROM I.T "
            "ORDER BY REC_ID")
        et = stack.engine.query(
            "SELECT SEQNO, ERRCODE FROM I.T_ET ORDER BY SEQNO")
        uv = stack.engine.query(
            "SELECT REC_ID, SEQNO FROM I.T_UV ORDER BY SEQNO")
    assert ((metrics.rows_inserted, metrics.et_errors,
             metrics.uv_errors), target, et, uv) == reference
