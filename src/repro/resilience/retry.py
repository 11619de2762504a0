"""Retry with exponential backoff and full jitter.

The legacy utilities Hyper-Q virtualizes assume a co-located EDW that
either works or is down; the cloud interfaces underneath the
virtualization layer instead fail *transiently* all the time (throttled
PUTs, broken connections, momentary COPY refusals).  The
:class:`RetryPolicy` absorbs those without changing observable job
semantics: only errors classified transient are retried, delays grow
exponentially with *full jitter* (delay drawn uniformly from
``[0, min(cap, base * multiplier**attempt)]`` — the AWS-recommended
variant that de-synchronizes competing retriers), and a per-call sleep
budget bounds worst-case added latency.

One policy instance is shared by every call site on a node: its
thread-safe counters are the node-level ``retry_attempts`` /
``retry_giveups`` telemetry, and each absorbed failure is emitted both
as a labeled metric and as a ``retry`` child span of the operation that
failed.
"""

from __future__ import annotations

import random
import threading
import time

from repro.errors import FaultInjected, TransportClosed

__all__ = ["RetryPolicy", "guarded_call", "is_transient",
           "full_jitter_delay"]


def is_transient(exc: BaseException) -> bool:
    """Default retry predicate: should this failure be retried?

    Injected faults carry their class explicitly; a dropped transport is
    always worth one more try; anything else may opt in by exposing a
    truthy ``transient`` attribute.  Genuine data/SQL errors
    (``BulkExecutionError``, ``DataFormatError``, ...) stay permanent —
    retrying them would just re-fail and mask the real problem.
    """
    if isinstance(exc, FaultInjected):
        return exc.transient
    if isinstance(exc, TransportClosed):
        return True
    return bool(getattr(exc, "transient", False))


def full_jitter_delay(attempt: int, base_s: float, cap_s: float,
                      rng: random.Random, multiplier: float = 2.0) -> float:
    """One full-jitter backoff delay for the ``attempt``-th retry (1-based)."""
    ceiling = min(cap_s, base_s * (multiplier ** max(attempt - 1, 0)))
    return rng.uniform(0.0, ceiling)


class RetryPolicy:
    """Bounded transient-only retry around one callable.

    ``call(fn)`` runs ``fn`` up to ``max_attempts`` times.  The policy is
    deliberately *stateless per call* (no half-open bookkeeping — that is
    the circuit breaker's job) but *stateful as telemetry*: the shared
    instance counts every retry and give-up across the node.
    """

    def __init__(self, max_attempts: int = 4,
                 base_delay_s: float = 0.05,
                 max_delay_s: float = 2.0,
                 multiplier: float = 2.0,
                 budget_s: float = 30.0,
                 classify=is_transient,
                 rng: random.Random | None = None,
                 sleep=time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay_s < 0 or max_delay_s < 0 or budget_s < 0:
            raise ValueError("retry delays cannot be negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.multiplier = multiplier
        self.budget_s = budget_s
        self.classify = classify
        self.rng = rng or random.Random()
        self.sleep = sleep
        self._lock = threading.Lock()
        #: total absorbed failures (i.e. re-attempts actually made).
        self.attempts_total = 0
        #: calls that exhausted attempts/budget on a transient error.
        self.giveups_total = 0
        #: per-target attempt counts for stats().
        self.by_target: dict[str, int] = {}

    @classmethod
    def from_config(cls, config, rng: random.Random | None = None,
                    sleep=time.sleep) -> "RetryPolicy":
        """Build the node policy from a :class:`HyperQConfig`."""
        return cls(
            max_attempts=config.retry_max_attempts,
            base_delay_s=config.retry_base_delay_s,
            max_delay_s=config.retry_max_delay_s,
            budget_s=config.retry_budget_s,
            rng=rng, sleep=sleep)

    def delay(self, attempt: int) -> float:
        """The jittered delay before the ``attempt``-th retry (1-based)."""
        with self._lock:
            return full_jitter_delay(
                attempt, self.base_delay_s, self.max_delay_s, self.rng,
                self.multiplier)

    def _count(self, target: str, gave_up: bool = False) -> None:
        with self._lock:
            if gave_up:
                self.giveups_total += 1
            else:
                self.attempts_total += 1
                self.by_target[target] = self.by_target.get(target, 0) + 1

    def call(self, fn, *, target: str = "", obs=None, parent=None,
             job_id: str = ""):
        """Run ``fn`` with transient-only retry; returns its result.

        ``obs`` (an :class:`repro.obs.Observability`) makes each retry a
        labeled counter increment and a ``retry`` child span of
        ``parent`` recording the attempt number, the absorbed error, and
        the backoff chosen — so a traced job shows exactly where time
        went when the cloud misbehaved.  With a ``job_id``, each retry
        (and give-up) also lands in that job's flight recorder so a
        post-mortem bundle carries the full retry history.
        """
        flight = getattr(obs, "flight", None) if job_id else None
        slept = 0.0
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except BaseException as exc:
                retryable = self.classify(exc)
                out_of_attempts = attempt >= self.max_attempts
                delay = 0.0 if out_of_attempts else self.delay(attempt)
                # Server-provided backoff hints (WlmThrottled and
                # friends expose ``retry_after_s``) floor the jittered
                # delay: retrying sooner than the peer asked would just
                # re-trip the same admission limit.  The floor is capped
                # at the *remaining* sleep budget so a single large hint
                # cannot turn a configured multi-attempt retry into an
                # instant give-up.
                if not out_of_attempts:
                    hint = float(
                        getattr(exc, "retry_after_s", 0.0) or 0.0)
                    if hint > 0:
                        remaining = max(self.budget_s - slept, 0.0)
                        delay = max(delay, min(hint, remaining))
                over_budget = slept + delay > self.budget_s
                if not retryable or out_of_attempts or over_budget:
                    if retryable:
                        self._count(target, gave_up=True)
                        if obs is not None:
                            obs.retry_giveups.labels(target=target).inc()
                        if flight is not None:
                            flight.record(
                                job_id, "retry_giveup", target=target,
                                attempt=attempt, error=str(exc))
                    raise
                self._count(target)
                if obs is not None:
                    obs.retry_attempts.labels(target=target).inc()
                    span = obs.tracer.span(
                        "retry", parent=parent, target=target,
                        attempt=attempt, delay_s=round(delay, 6),
                        error=str(exc))
                    span.end("error")
                if flight is not None:
                    flight.record(
                        job_id, "retry", target=target, attempt=attempt,
                        delay_s=round(delay, 4), error=str(exc))
                if delay > 0:
                    self.sleep(delay)
                slept += delay
        raise AssertionError("unreachable")  # pragma: no cover

    def snapshot(self) -> dict:
        """Stats-friendly counters for ``HyperQNode.stats()``."""
        with self._lock:
            return {
                "max_attempts": self.max_attempts,
                "attempts": self.attempts_total,
                "giveups": self.giveups_total,
                "by_target": dict(sorted(self.by_target.items())),
            }


def guarded_call(target: str, fn, *, retry: RetryPolicy | None = None,
                 breakers=None, obs=None, parent=None, job_id: str = ""):
    """Run ``fn`` through ``target``'s circuit breaker, inside retry.

    The guard stack of every cloud-facing call site.  The breaker sits
    *inside* the retry so each attempt consults it and a breaker that
    opens mid-retry stops the remaining attempts; a call site fires its
    fault-injection point first thing in ``fn``, so an absorbed fault
    is retried before anything was dispatched.  ``breakers``
    (a :class:`~repro.resilience.CircuitBreakerRegistry`) and ``retry``
    each drop out when ``None`` — with both ``None`` ``fn`` is called
    bare.  ``obs``/``parent``/``job_id`` go to :meth:`RetryPolicy.call`.
    """
    op = fn
    if breakers is not None:
        breaker = breakers.get(target)
        op = lambda: breaker.call(fn)  # noqa: E731
    if retry is None:
        return op()
    return retry.call(op, target=target, obs=obs, parent=parent,
                      job_id=job_id)
