"""repro.resilience — retry, circuit breaking, and checkpointed restart.

The counterpart of :mod:`repro.faults`: where the injector makes the
cloud interfaces fail on demand, this package makes the virtualization
layer survive those failures without changing observable ETL semantics:

- :class:`RetryPolicy` — exponential backoff with full jitter, a sleep
  budget, and a transient-only predicate (:func:`is_transient`);
  :func:`guarded_call` is the breaker-inside-retry stack every
  cloud-facing call site runs under;
- :class:`CircuitBreaker` / :class:`CircuitBreakerRegistry` — per-target
  closed/open/half-open admission control that fails fast while a
  dependency is down;
- :class:`CheckpointJournal` — chunk-level load-job checkpointing so an
  interrupted job restarts without re-sending or re-uploading work that
  is already durable (the FastLoad checkpoint/restart semantics of
  Section 2).

See ``docs/RESILIENCE.md`` for how the pieces compose on each path.
"""

from __future__ import annotations

from repro.resilience.breaker import CircuitBreaker, CircuitBreakerRegistry
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.retry import (
    RetryPolicy, full_jitter_delay, guarded_call, is_transient,
)

__all__ = [
    "RetryPolicy", "is_transient", "full_jitter_delay", "guarded_call",
    "CircuitBreaker", "CircuitBreakerRegistry",
    "CheckpointJournal",
]
