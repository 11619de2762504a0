"""Ablation — immediate acknowledgment vs. the synchronous alternative.

Section 5 considers and rejects synchronizing the pipeline ("Hyper-Q
could wait to acknowledge each incoming data chunk until it's been
written to disk.  However, this type of synchronization would delay the
acknowledgment of the chunk and slow data acquisition").

The benefit of the immediate ack is overlap between client transmission
and conversion/writing, so the comparison runs on the discrete-event
model (where transmission time is explicit) *and* sanity-checks on the
real pipeline — with the held ack emulated by a wrapper local to this
file — that both modes load identical results.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

from conftest import emit, scaled

from repro.bench import format_series, run_import_workload
from repro.core import HyperQConfig
from repro.core.pipeline import AcquisitionPipeline
from repro.sim import SimParams, simulate_acquisition
from repro.workloads import make_workload

ROWS = scaled(3_000)


def _sim(synchronous: bool):
    return simulate_acquisition(SimParams(
        rows=2_000_000, row_bytes=500, chunk_bytes=1 << 20,
        sessions=4, cores=8, credits=64,
        convert_cpu_per_byte=4e-8, convert_cpu_per_row=0.0,
        client_bandwidth_per_session=120e6,
        disk_bandwidth=800e6, link_bandwidth=4e9, copy_bandwidth=1e10,
        fixed_setup=2.0, fixed_teardown=2.0,
        synchronous_ack=synchronous))


@contextmanager
def _held_ack():
    """Section 5's rejected design: ack a chunk once it is on disk."""
    submit = AcquisitionPipeline.submit_chunk

    def submit_and_wait(self, chunk_seq, data, **kwargs):
        submit(self, chunk_seq, data, **kwargs)
        with self._state:
            self._state.wait_for(
                lambda: chunk_seq in self.chunk_records or self._failures)
        self._check_failures()

    with mock.patch.object(AcquisitionPipeline, "submit_chunk",
                           submit_and_wait):
        yield


def _real(synchronous: bool):
    workload = make_workload(rows=ROWS, row_bytes=300, seed=51)
    config = HyperQConfig(converters=4, filewriters=2, credits=32)
    with _held_ack() if synchronous else nullcontext():
        return run_import_workload(
            workload, config=config, sessions=4, chunk_bytes=64 * 1024)


def test_ablation_sync_ack(benchmark, results_dir):
    async_sim = _sim(False)
    sync_sim = _sim(True)
    async_real = _real(False)
    sync_real = _real(True)
    series = [
        {"mode": "immediate ack (paper)", "substrate": "sim",
         "acquisition_s": round(async_sim.acquisition_time, 2)},
        {"mode": "synchronous ack (rejected)", "substrate": "sim",
         "acquisition_s": round(sync_sim.acquisition_time, 2)},
        {"mode": "immediate ack (paper)", "substrate": "real",
         "acquisition_s": round(async_real.acquisition_s, 3)},
        {"mode": "synchronous ack (rejected)", "substrate": "real",
         "acquisition_s": round(sync_real.acquisition_s, 3)},
    ]
    text = format_series(
        "Ablation: immediate vs synchronous acknowledgment",
        series,
        note="expect: synchronous acks slow data acquisition (overlap "
             "between transmission and conversion is lost)")
    emit(results_dir, "ablation_sync_ack", text)

    assert sync_sim.acquisition_time > async_sim.acquisition_time * 1.2, \
        "synchronizing the pipeline must slow acquisition materially"
    assert async_real.rows_inserted == sync_real.rows_inserted, \
        "both modes must load identical data"

    benchmark.pedantic(_sim, args=(False,), rounds=1, iterations=1)
