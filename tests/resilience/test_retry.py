"""Unit tests for the retry policy (backoff, budget, classification)."""

import random

import pytest

from repro.errors import (
    CircuitOpenError, PermanentFault, TransientFault, TransportClosed,
)
from repro.resilience import (
    CircuitBreakerRegistry, RetryPolicy, full_jitter_delay, guarded_call,
    is_transient,
)


def flaky(failures, exc_factory=lambda: TransientFault("blip")):
    """A callable that fails ``failures`` times, then returns 'ok'."""
    state = {"left": failures, "calls": 0}

    def fn():
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            raise exc_factory()
        return "ok"

    fn.state = state
    return fn


def no_sleep_policy(**kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("rng", random.Random(0))
    return RetryPolicy(**kwargs)


class TestClassification:
    def test_injected_faults_carry_their_class(self):
        assert is_transient(TransientFault("x"))
        assert not is_transient(PermanentFault("x"))

    def test_transport_closed_is_transient(self):
        assert is_transient(TransportClosed("gone"))

    def test_plain_exceptions_are_permanent(self):
        assert not is_transient(ValueError("nope"))

    def test_transient_attribute_opts_in(self):
        exc = RuntimeError("throttled")
        exc.transient = True
        assert is_transient(exc)


class TestFullJitter:
    def test_delay_within_exponential_envelope(self):
        rng = random.Random(1)
        for attempt in range(1, 8):
            ceiling = min(2.0, 0.1 * 2 ** (attempt - 1))
            for _ in range(50):
                delay = full_jitter_delay(attempt, 0.1, 2.0, rng)
                assert 0.0 <= delay <= ceiling

    def test_same_seed_same_delays(self):
        a = [full_jitter_delay(i, 0.1, 2.0, random.Random(3))
             for i in range(1, 5)]
        b = [full_jitter_delay(i, 0.1, 2.0, random.Random(3))
             for i in range(1, 5)]
        assert a == b


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        policy = no_sleep_policy(max_attempts=4)
        fn = flaky(2)
        assert policy.call(fn, target="store.upload") == "ok"
        assert fn.state["calls"] == 3
        assert policy.attempts_total == 2
        assert policy.by_target == {"store.upload": 2}
        assert policy.giveups_total == 0

    def test_gives_up_after_max_attempts(self):
        policy = no_sleep_policy(max_attempts=3)
        fn = flaky(99)
        with pytest.raises(TransientFault):
            policy.call(fn, target="copy.into")
        assert fn.state["calls"] == 3
        assert policy.attempts_total == 2  # two re-attempts were made
        assert policy.giveups_total == 1

    def test_permanent_error_not_retried(self):
        policy = no_sleep_policy(max_attempts=5)
        fn = flaky(99, exc_factory=lambda: PermanentFault("dead"))
        with pytest.raises(PermanentFault):
            policy.call(fn)
        assert fn.state["calls"] == 1
        assert policy.attempts_total == 0
        assert policy.giveups_total == 0  # not a transient give-up

    def test_budget_bounds_total_sleep(self):
        slept = []
        policy = RetryPolicy(max_attempts=50, base_delay_s=1.0,
                             max_delay_s=1.0, budget_s=2.5,
                             rng=random.Random(0), sleep=slept.append)
        # Force deterministic full-ceiling delays.
        policy.rng = random.Random()
        policy.rng.uniform = lambda a, b: b
        with pytest.raises(TransientFault):
            policy.call(flaky(99))
        assert sum(slept) <= 2.5
        assert policy.giveups_total == 1

    def test_single_attempt_policy_never_retries(self):
        policy = no_sleep_policy(max_attempts=1)
        with pytest.raises(TransientFault):
            policy.call(flaky(1))
        assert policy.attempts_total == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_snapshot(self):
        policy = no_sleep_policy()
        policy.call(flaky(1), target="a")
        snap = policy.snapshot()
        assert snap["attempts"] == 1
        assert snap["by_target"] == {"a": 1}

    def test_retry_after_hint_floors_delay(self):
        """A server retry-after hint (e.g. WLM_THROTTLED) overrides a
        smaller jittered backoff — retrying sooner than the peer asked
        would just re-trip the same admission limit."""
        from repro.errors import WlmThrottled

        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001,
                             max_delay_s=0.002, budget_s=30.0,
                             rng=random.Random(0), sleep=slept.append)
        policy.call(flaky(
            2, exc_factory=lambda: WlmThrottled(
                "busy", pool="p", retry_after_s=0.5)))
        assert len(slept) == 2
        assert all(delay >= 0.5 for delay in slept)

    def test_retry_after_hint_capped_at_remaining_budget(self):
        """A hint larger than the whole sleep budget must not void the
        configured attempts: it is capped at the remaining budget so
        the retry still happens (just sooner than the peer asked)."""
        from repro.errors import WlmThrottled

        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001,
                             max_delay_s=0.002, budget_s=1.0,
                             rng=random.Random(0), sleep=slept.append)
        result = policy.call(flaky(
            1, exc_factory=lambda: WlmThrottled(
                "busy", pool="p", retry_after_s=60.0)))
        assert result == "ok"
        assert len(slept) == 1
        assert slept[0] <= 1.0

    def test_retry_after_hint_does_not_shrink_larger_backoff(self):
        """The hint is a floor, not a replacement for backoff."""
        exc = TransientFault("blip")
        exc.retry_after_s = 0.01
        slept = []
        policy = RetryPolicy(max_attempts=2, base_delay_s=5.0,
                             max_delay_s=5.0, budget_s=30.0,
                             sleep=slept.append)
        policy.rng = random.Random()
        policy.rng.uniform = lambda a, b: b  # deterministic ceiling
        policy.call(flaky(1, exc_factory=lambda: exc))
        assert slept == [5.0]


class TestRetryObservability:
    def test_metrics_and_spans_recorded(self):
        from repro.obs import Observability
        obs = Observability(trace_enabled=True)
        policy = no_sleep_policy(max_attempts=4)
        with obs.tracer.span("op") as parent:
            policy.call(flaky(2), target="store.upload", obs=obs,
                        parent=parent)
        counters = obs.registry.collect()["hyperq_retry_attempts_total"]
        (sample,) = counters["samples"]
        assert sample["labels"] == {"target": "store.upload"}
        assert sample["value"] == 2
        retry_spans = obs.tracer.spans("retry")
        assert len(retry_spans) == 2
        assert all(s["parent_id"] == parent.span_id
                   for s in retry_spans)
        assert retry_spans[0]["attrs"]["attempt"] == 1
        assert all(s["status"] == "error" for s in retry_spans)

    def test_giveup_metric_recorded(self):
        from repro.obs import Observability
        obs = Observability()
        policy = no_sleep_policy(max_attempts=2)
        with pytest.raises(TransientFault):
            policy.call(flaky(9), target="copy.into", obs=obs)
        counters = obs.registry.collect()["hyperq_retry_giveups_total"]
        (sample,) = counters["samples"]
        assert sample["value"] == 1


def test_guarded_call_runs_fn_through_breaker_inside_retry():
    retry = no_sleep_policy(max_attempts=4)
    breakers = CircuitBreakerRegistry(failure_threshold=2, cooldown_s=60)

    # a transient failure is retried, and the breaker saw each attempt
    fn = flaky(1)
    assert guarded_call("store.upload", fn, retry=retry,
                        breakers=breakers) == "ok"
    assert fn.state["calls"] == 2
    assert retry.by_target == {"store.upload": 1}
    assert breakers.get("store.upload").snapshot()["state"] == "closed"

    # the breaker opens mid-retry and short-circuits before fn
    fn = flaky(10)
    with pytest.raises(CircuitOpenError):
        guarded_call("copy.into", fn, retry=retry, breakers=breakers)
    assert fn.state["calls"] == 2
    with pytest.raises(CircuitOpenError):
        guarded_call("copy.into", fn, breakers=breakers)
    assert fn.state["calls"] == 2

    # neither layer: fn is called bare, its error propagates as is
    fn = flaky(1)
    with pytest.raises(TransientFault):
        guarded_call("dml.apply", fn)
    assert guarded_call("dml.apply", fn) == "ok"
    assert fn.state["calls"] == 2
