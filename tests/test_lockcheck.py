"""Runtime lock-order witness tests.

The witness must (1) be a true no-op when disabled — ``make_lock``
returns the plain ``threading`` primitives, (2) detect an injected
lock-order inversion *at acquire time* with both acquisition stacks in
the report, (3) tolerate the legal patterns the serving stack relies on
(re-entrant re-acquisition, ``Condition`` integration), and (4) record
the held-before edges real serving traffic produces.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import lockcheck
from repro.analysis.lockcheck import (
    LockOrderViolation,
    WitnessLock,
    make_lock,
    reset_witness,
    witness,
    witness_edges,
)
from repro.compression.compressor import compress_corpus
from repro.serve import AnalyticsService


@pytest.fixture(autouse=True)
def _clean_witness():
    """Isolate every test: known enabled-state, empty held-before graph."""
    was_enabled = lockcheck.is_enabled()
    lockcheck.disable()
    reset_witness()
    yield
    reset_witness()
    if was_enabled:
        lockcheck.enable()
    else:
        lockcheck.disable()


# ----------------------------------------------------------------------------------------
# Disabled: zero overhead
# ----------------------------------------------------------------------------------------

class TestDisabled:
    def test_disabled_returns_plain_primitives(self):
        assert isinstance(make_lock("serve.cache"), type(threading.Lock()))
        assert isinstance(make_lock("session", reentrant=True), type(threading.RLock()))

    def test_disabled_never_checks_order(self):
        outer = make_lock("serve.stats")   # rank 60
        inner = make_lock("serve.cache")   # rank 30: inverted, but unchecked
        with outer:
            with inner:
                pass
        assert witness_edges() == []

    def test_unknown_level_rejected_even_when_disabled(self):
        with pytest.raises(KeyError):
            make_lock("no.such.level")


# ----------------------------------------------------------------------------------------
# Enabled: inversion detection with both stacks
# ----------------------------------------------------------------------------------------

def _acquire_held_lock_here(lock):
    lock.acquire()


def _attempt_offending_acquire_here(lock):
    lock.acquire()


class TestInversionDetection:
    def test_injected_inversion_detected_at_acquire_time(self):
        with witness():
            stats_lock = make_lock("serve.stats")   # rank 60
            cache_lock = make_lock("serve.cache")   # rank 30
        assert isinstance(stats_lock, WitnessLock)
        _acquire_held_lock_here(stats_lock)
        try:
            with pytest.raises(LockOrderViolation) as excinfo:
                _attempt_offending_acquire_here(cache_lock)
        finally:
            stats_lock.release()
        report = str(excinfo.value)
        assert "lock-order inversion" in report
        assert "serve.cache" in report and "serve.stats" in report
        # Both acquisition stacks, each pointing at its acquiring frame.
        assert "stack that acquired the held lock" in report
        assert "_acquire_held_lock_here" in report
        assert "stack attempting the offending acquisition" in report
        assert "_attempt_offending_acquire_here" in report
        # Detection happened before blocking: nothing is deadlocked and
        # the offending lock is still free.
        assert cache_lock.acquire(blocking=False)
        cache_lock.release()

    def test_cross_thread_inversion_reports_opposite_stack(self):
        with witness():
            first = make_lock("serve.cache")   # rank 30
            second = make_lock("serve.epoch")  # rank 62

        def legal_order():
            with first:
                with second:  # valid 30 -> 62 edge, witnessed into the graph
                    pass

        worker = threading.Thread(target=legal_order, name="legal-order-thread")
        worker.start()
        worker.join(timeout=5.0)
        assert ("serve.cache", "serve.epoch") in witness_edges()

        # This thread now takes the opposite order: the report must show
        # this thread's two stacks *and* the worker's earlier edge.
        second.acquire()
        try:
            with pytest.raises(LockOrderViolation) as excinfo:
                first.acquire()
        finally:
            second.release()
        report = str(excinfo.value)
        assert "opposite-order edge witnessed earlier" in report
        assert "legal-order-thread" in report
        assert "legal_order" in report

    def test_same_rank_distinct_instances_rejected(self):
        with witness():
            a = make_lock("serve.cache")
            b = make_lock("serve.cache")
        with a:
            with pytest.raises(LockOrderViolation):
                b.acquire()

    def test_non_reentrant_self_deadlock_detected(self):
        with witness():
            lock = make_lock("serve.cache")
        with lock:
            with pytest.raises(LockOrderViolation) as excinfo:
                lock.acquire()
        assert "re-acquired by its holder" in str(excinfo.value)


# ----------------------------------------------------------------------------------------
# Enabled: legal patterns stay legal
# ----------------------------------------------------------------------------------------

class TestLegalPatterns:
    def test_increasing_rank_order_is_silent(self):
        with witness():
            router = make_lock("serve.router")  # 10
            corpus = make_lock("corpus", reentrant=True)  # 50
            epoch = make_lock("serve.epoch")  # 62
        with router:
            with corpus:
                with epoch:
                    pass
        assert ("serve.router", "corpus") in witness_edges()
        assert ("corpus", "serve.epoch") in witness_edges()

    def test_reentrant_reacquisition_allowed(self):
        with witness():
            session = make_lock("session", reentrant=True)  # 40
            corpus = make_lock("corpus", reentrant=True)  # 50
        with session:
            with corpus:
                with session:  # re-entrant: no new edge, no violation
                    pass
        assert ("corpus", "session") not in witness_edges()

    def test_condition_integration(self):
        # The coalescer wraps its witness lock in a threading.Condition;
        # wait/notify must work through the instrumented acquire/release.
        with witness():
            lock = make_lock("serve.coalescer")
        arrival = threading.Condition(lock)
        fired = []

        def waiter():
            with arrival:
                arrival.wait(timeout=5.0)
                fired.append(True)

        worker = threading.Thread(target=waiter)
        worker.start()
        while worker.is_alive():
            with arrival:
                arrival.notify_all()
            worker.join(timeout=0.01)
        assert fired == [True]

    def test_trylock_failure_leaves_no_hold(self):
        with witness():
            cache = make_lock("serve.cache")    # rank 30
            router = make_lock("serve.router")  # rank 10
        cache.acquire()
        errors = []

        def worker():
            try:
                assert cache.acquire(blocking=False) is False
                # If the failed acquire had left a phantom hold, taking the
                # lower-ranked router lock here would raise an inversion.
                with router:
                    pass
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=5.0)
        cache.release()
        assert errors == []


# ----------------------------------------------------------------------------------------
# Integration: real serving traffic under the witness
# ----------------------------------------------------------------------------------------

class TestServingIntegration:
    def test_serving_traffic_witnesses_session_corpus_edge(self, tiny_corpus):
        with witness():
            compressed = compress_corpus(tiny_corpus)
            service = AnalyticsService(compressed)
            outcome = service.submit("word_count")
        assert outcome.result
        edges = witness_edges()
        assert ("session", "corpus") in edges


# ----------------------------------------------------------------------------------------
# Hold-time profiling and per-thread held-lock introspection
# ----------------------------------------------------------------------------------------

class TestHoldProfiles:
    def test_report_empty_until_a_lock_is_released(self):
        with witness():
            lock = make_lock("serve.cache")
            assert lockcheck.witness_report() == {}
            with lock:
                assert lockcheck.witness_report() == {}  # samples on release
            report = lockcheck.witness_report()
        profile = report["serve.cache"]
        assert profile.count == 1
        assert profile.rank == 30
        assert 0.0 <= profile.min <= profile.mean <= profile.max <= profile.total

    def test_profiles_aggregate_and_order_by_rank(self):
        with witness():
            router = make_lock("serve.router")      # rank 10
            cache = make_lock("serve.cache")        # rank 30
            for _ in range(3):
                with router:
                    pass
            with cache:
                time.sleep(0.01)
            report = lockcheck.witness_report()
        assert report["serve.router"].count == 3
        assert report["serve.cache"].count == 1
        assert report["serve.cache"].max >= 0.01
        ranks = [profile.rank for profile in report.values()]
        assert ranks == sorted(ranks)

    def test_reentrant_reacquisition_samples_outermost_hold_only(self):
        with witness():
            session = make_lock("session", reentrant=True)
            with session:
                with session:
                    pass
            report = lockcheck.witness_report()
        assert report["session"].count == 1

    def test_held_levels_tracks_the_current_thread_in_order(self):
        with witness():
            router = make_lock("serve.router")
            transport = make_lock("serve.transport")
            assert lockcheck.held_levels() == []
            with router:
                assert lockcheck.held_levels() == ["serve.router"]
                with transport:
                    assert lockcheck.held_levels() == [
                        "serve.router",
                        "serve.transport",
                    ]
                assert lockcheck.held_levels() == ["serve.router"]
            assert lockcheck.held_levels() == []

    def test_held_levels_is_per_thread(self):
        with witness():
            router = make_lock("serve.router")
            seen = []
            with router:
                worker = threading.Thread(
                    target=lambda: seen.append(lockcheck.held_levels())
                )
                worker.start()
                worker.join(timeout=5.0)
        assert seen == [[]]

    def test_empty_profile_mean_is_zero(self):
        profile = lockcheck.HoldProfile(
            level="serve.cache", rank=30, count=0, total=0.0, min=0.0, max=0.0
        )
        assert profile.mean == 0.0

    def test_reset_clears_hold_times(self):
        with witness():
            with make_lock("serve.cache"):
                pass
            assert lockcheck.witness_report()
            reset_witness()
            assert lockcheck.witness_report() == {}

    def test_serving_traffic_yields_consistent_profiles(self, tiny_corpus):
        with witness():
            compressed = compress_corpus(tiny_corpus)
            service = AnalyticsService(compressed)
            service.submit("word_count")
            report = lockcheck.witness_report()
        assert "session" in report
        assert "corpus" in report
        for profile in report.values():
            assert profile.count >= 1
            assert 0.0 <= profile.min <= profile.mean <= profile.max
            assert profile.total >= profile.max

    def test_process_pool_witnesses_transport_edge_and_profile(self, tiny_corpus):
        from repro.serve import ShardedAnalyticsService, ShardedServiceConfig

        with witness():
            compressed = compress_corpus(tiny_corpus)
            service = ShardedAnalyticsService(
                compressed,
                sharded_config=ShardedServiceConfig(
                    num_shards=2, transport="process"
                ),
            )
            try:
                outcome = service.submit("word_count")
                # Reading the wire counters takes the transport lock under
                # the router lock: the declared router->transport edge.
                service.stats()
            finally:
                service.close()
            report = lockcheck.witness_report()
            edges = witness_edges()
        assert outcome.result
        assert ("serve.router", "serve.transport") in edges
        profile = report["serve.transport"]
        assert profile.count >= 1
        # The transport lock only guards counters and spawn state; if a
        # blocking pipe receive ever slipped under it, the max hold would
        # be the round trip itself (the recv tripwire guards this too).
        assert profile.max < 5.0
