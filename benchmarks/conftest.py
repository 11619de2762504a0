"""Shared benchmark configuration.

Scales: the paper loads 25-100 million rows on server hardware; the
benchmarks default to a 1/2000 scale (12,500-row base) so the whole suite
runs in a few minutes.  Set ``REPRO_BENCH_SCALE`` to grow or shrink every
real-execution benchmark proportionally (e.g. ``REPRO_BENCH_SCALE=4``).

Every figure benchmark prints its series table and writes it under
``benchmarks/results/`` so the regenerated "figures" survive pytest's
output capture.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(base_rows: int) -> int:
    return max(int(base_rows * bench_scale()), 100)


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: str, name: str, text: str) -> None:
    """Print a series table and persist it under benchmarks/results/."""
    print("\n" + text)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def bench_json(name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` at the repo root (the perf trajectory)."""
    from repro.bench.report import write_bench_json

    return write_bench_json(
        os.path.join(REPO_ROOT, f"BENCH_{name}.json"), payload)


@contextmanager
def halving_reference():
    """Apply by the paper's recursive halving alone: while active, every
    apply run's error handler is built as
    ``AdaptiveErrorHandler(locate=None)`` (with no clean-rows executor
    either), so no locate pass or verdict route runs."""
    from repro.core import beta

    real = beta.AdaptiveErrorHandler

    def halving(**kwargs):
        return real(**{**kwargs, "locate": None, "execute_clean": None})

    beta.AdaptiveErrorHandler = halving
    try:
        yield
    finally:
        beta.AdaptiveErrorHandler = real
