"""WorkloadManager admission control: slots, queue, shedding."""

import threading
import time

import pytest

from repro.core.config import HyperQConfig
from repro.core.credits import CreditManager
from repro.errors import WlmThrottled
from repro.wlm import WorkloadManager


def make_manager(profile, credits=4):
    return WorkloadManager.from_config(
        HyperQConfig(wlm_profile=profile), CreditManager(credits))


class TestDisabled:
    def test_pass_through_when_no_profile(self):
        credits = CreditManager(2)
        manager = WorkloadManager.from_config(HyperQConfig(), credits)
        assert not manager.enabled
        assert manager.classify(tenant="x") == ""
        assert manager.admit("", "j1") is None
        assert manager.credit_source("") is credits
        manager.release(None)  # tolerated
        assert manager.snapshot() == {"enabled": False, "pools": {}}


class TestAdmission:
    def test_admit_and_release_slot(self):
        manager = make_manager([{"name": "p", "max_concurrency": 2}])
        t1 = manager.admit("p", "j1")
        t2 = manager.admit("p", "j2")
        snap = manager.snapshot()["pools"]["p"]
        assert snap["occupied_slots"] == 2
        assert snap["admitted"] == 2
        manager.release(t1)
        manager.release(t2)
        assert manager.snapshot()["pools"]["p"]["occupied_slots"] == 0

    def test_release_is_idempotent(self):
        manager = make_manager([{"name": "p", "max_concurrency": 1}])
        ticket = manager.admit("p", "j1")
        manager.release(ticket)
        manager.release(ticket)
        assert manager.snapshot()["pools"]["p"]["occupied_slots"] == 0

    def test_queue_full_sheds_immediately(self):
        manager = make_manager([{
            "name": "p", "max_concurrency": 1, "queue_limit": 0,
        }])
        manager.admit("p", "j1")
        started = time.monotonic()
        with pytest.raises(WlmThrottled) as info:
            manager.admit("p", "j2")
        assert time.monotonic() - started < 0.5  # no queue wait
        exc = info.value
        assert exc.reason == "queue_full"
        assert exc.pool == "p"
        assert exc.transient is True
        assert exc.retry_after_s > 0
        assert manager.snapshot()["pools"]["p"]["throttled"] == 1

    def test_queue_timeout_sheds_late(self):
        manager = make_manager([{
            "name": "p", "max_concurrency": 1, "queue_limit": 4,
            "queue_timeout_s": 0.1,
        }])
        manager.admit("p", "j1")
        started = time.monotonic()
        with pytest.raises(WlmThrottled) as info:
            manager.admit("p", "j2")
        assert time.monotonic() - started >= 0.1
        assert info.value.reason == "queue_timeout"
        snap = manager.snapshot()["pools"]["p"]
        assert snap["queue_timeouts"] == 1
        assert snap["queue_depth"] == 0  # waiter cleaned up

    def test_queued_admission_proceeds_on_release(self):
        manager = make_manager([{
            "name": "p", "max_concurrency": 1, "queue_limit": 2,
            "queue_timeout_s": 5.0,
        }])
        first = manager.admit("p", "j1")
        admitted = threading.Event()

        def wait_in_queue():
            ticket = manager.admit("p", "j2")
            admitted.set()
            manager.release(ticket)

        thread = threading.Thread(target=wait_in_queue, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        assert manager.snapshot()["pools"]["p"]["queue_depth"] == 1
        manager.release(first)
        assert admitted.wait(timeout=2)
        thread.join(timeout=2)
        snap = manager.snapshot()["pools"]["p"]
        assert snap["admitted"] == 2
        assert snap["max_admission_wait_s"] > 0

    def test_retry_after_hint_scales_with_queue_depth(self):
        manager = make_manager([{
            "name": "p", "max_concurrency": 1, "queue_limit": 1,
            "queue_timeout_s": 5.0, "retry_after_s": 0.2,
        }])
        first = manager.admit("p", "j1")
        queued = threading.Thread(
            target=lambda: manager.release(manager.admit("p", "j2")),
            daemon=True)
        queued.start()
        time.sleep(0.05)  # j2 now queued
        with pytest.raises(WlmThrottled) as info:
            manager.admit("p", "j3")
        # hint = retry_after_s * (queued + 1) with one job queued.
        assert info.value.retry_after_s == pytest.approx(0.4)
        # j2 is admitted and released on its own thread, inside this test
        manager.release(first)
        queued.join(timeout=2)
        assert not queued.is_alive()

    def test_pools_are_isolated(self):
        manager = make_manager([
            {"name": "a", "max_concurrency": 1, "queue_limit": 0},
            {"name": "b", "max_concurrency": 1, "queue_limit": 0},
        ])
        manager.admit("a", "j1")
        with pytest.raises(WlmThrottled):
            manager.admit("a", "j2")
        # pool b is unaffected by a's saturation.
        ticket = manager.admit("b", "j3")
        manager.release(ticket)

    def test_credit_source_is_pool_bound(self):
        manager = make_manager([{"name": "p"}])
        source = manager.credit_source("p")
        credit = source.acquire()
        assert manager.arbiter.in_flight("p") == 1
        source.release(credit)
        manager.credits.check_conservation()

    def test_snapshot_includes_arbiter_stats(self):
        manager = make_manager([{"name": "p", "weight": 2.0}])
        snap = manager.snapshot()
        assert snap["enabled"] is True
        assert snap["policy"] == "fair"
        assert snap["pools"]["p"]["credits"]["weight"] == 2.0
