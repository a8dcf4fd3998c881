"""Unit tests for the strict-2PL lock manager."""

import pytest

from repro.sim import Environment
from repro.storage import DeadlockError, LockManager, LockMode, LockTimeoutError


def run(env, gen):
    return env.process(gen)


def test_exclusive_lock_granted_immediately_when_free():
    env = Environment()
    lm = LockManager(env)
    waits = []

    def proc():
        wait = yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        waits.append(wait)

    env.process(proc())
    env.run()
    assert waits == [0.0]
    assert lm.holders("k") == {"t1": LockMode.EXCLUSIVE}


def test_shared_locks_are_compatible():
    env = Environment()
    lm = LockManager(env)
    granted = []

    def reader(txn):
        yield lm.acquire(txn, "k", LockMode.SHARED)
        granted.append((env.now, txn))

    env.process(reader("t1"))
    env.process(reader("t2"))
    env.run()
    assert granted == [(0, "t1"), (0, "t2")]
    assert set(lm.holders("k")) == {"t1", "t2"}


def test_exclusive_blocks_until_release():
    env = Environment()
    lm = LockManager(env)
    log = []

    def writer1():
        yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        yield env.timeout(50)
        lm.release_all("t1")

    def writer2():
        yield env.timeout(1)
        wait = yield lm.acquire("t2", "k", LockMode.EXCLUSIVE)
        log.append((env.now, wait))

    env.process(writer1())
    env.process(writer2())
    env.run()
    assert log == [(50, pytest.approx(49))]


def test_shared_blocked_by_exclusive():
    env = Environment()
    lm = LockManager(env)
    log = []

    def writer():
        yield lm.acquire("w", "k", LockMode.EXCLUSIVE)
        yield env.timeout(30)
        lm.release_all("w")

    def reader():
        yield env.timeout(1)
        yield lm.acquire("r", "k", LockMode.SHARED)
        log.append(env.now)

    env.process(writer())
    env.process(reader())
    env.run()
    assert log == [30]


def test_lock_timeout_fails_request_and_counts():
    env = Environment()
    lm = LockManager(env, lock_wait_timeout_ms=100)
    errors = []

    def holder():
        yield lm.acquire("h", "k", LockMode.EXCLUSIVE)
        yield env.timeout(10_000)
        lm.release_all("h")

    def waiter():
        yield env.timeout(1)
        try:
            yield lm.acquire("w", "k", LockMode.EXCLUSIVE)
        except LockTimeoutError as exc:
            errors.append((env.now, exc.txn_id, exc.waited_ms))

    env.process(holder())
    env.process(waiter())
    env.run(until=2000)
    # Lock-wait timers live on the hashed timer wheel (1 ms ticks): the
    # 101 ms deadline falls exactly on a tick, so the expiry is unchanged.
    assert errors == [(101, "w", pytest.approx(100))]
    assert lm.stats.timeouts == 1


def test_reentrant_lock_same_transaction():
    env = Environment()
    lm = LockManager(env)
    done = []

    def proc():
        yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        yield lm.acquire("t1", "k", LockMode.SHARED)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0]
    # Exclusive is retained even after the weaker re-request.
    assert lm.holders("k") == {"t1": LockMode.EXCLUSIVE}


def test_upgrade_shared_to_exclusive_when_sole_holder():
    env = Environment()
    lm = LockManager(env)
    done = []

    def proc():
        yield lm.acquire("t1", "k", LockMode.SHARED)
        yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0]
    assert lm.holders("k")["t1"] is LockMode.EXCLUSIVE


def test_upgrade_blocked_when_other_readers_present():
    env = Environment()
    lm = LockManager(env, lock_wait_timeout_ms=50)
    outcome = []

    def other_reader():
        yield lm.acquire("r2", "k", LockMode.SHARED)
        yield env.timeout(500)
        lm.release_all("r2")

    def upgrader():
        yield lm.acquire("r1", "k", LockMode.SHARED)
        yield env.timeout(1)
        try:
            yield lm.acquire("r1", "k", LockMode.EXCLUSIVE)
            outcome.append("upgraded")
        except LockTimeoutError:
            outcome.append("timeout")

    env.process(other_reader())
    env.process(upgrader())
    env.run(until=1000)
    assert outcome == ["timeout"]


def test_fifo_ordering_of_waiters():
    env = Environment()
    lm = LockManager(env)
    order = []

    def holder():
        yield lm.acquire("h", "k", LockMode.EXCLUSIVE)
        yield env.timeout(10)
        lm.release_all("h")

    def waiter(txn, arrive):
        yield env.timeout(arrive)
        yield lm.acquire(txn, "k", LockMode.EXCLUSIVE)
        order.append(txn)
        yield env.timeout(5)
        lm.release_all(txn)

    env.process(holder())
    env.process(waiter("first", 1))
    env.process(waiter("second", 2))
    env.process(waiter("third", 3))
    env.run()
    assert order == ["first", "second", "third"]


def test_new_shared_request_queues_behind_waiting_exclusive():
    """A reader arriving after a queued writer must not starve the writer."""
    env = Environment()
    lm = LockManager(env)
    order = []

    def reader1():
        yield lm.acquire("r1", "k", LockMode.SHARED)
        yield env.timeout(20)
        lm.release_all("r1")

    def writer():
        yield env.timeout(1)
        yield lm.acquire("w", "k", LockMode.EXCLUSIVE)
        order.append(("w", env.now))
        yield env.timeout(5)
        lm.release_all("w")

    def reader2():
        yield env.timeout(2)
        yield lm.acquire("r2", "k", LockMode.SHARED)
        order.append(("r2", env.now))
        lm.release_all("r2")

    env.process(reader1())
    env.process(writer())
    env.process(reader2())
    env.run()
    assert order == [("w", 20), ("r2", 25)]


def test_release_all_clears_bookkeeping():
    env = Environment()
    lm = LockManager(env)

    def proc():
        yield lm.acquire("t1", "a", LockMode.EXCLUSIVE)
        yield lm.acquire("t1", "b", LockMode.SHARED)
        lm.release_all("t1")

    env.process(proc())
    env.run()
    assert lm.locks_held("t1") == set()
    assert lm.holders("a") == {}
    assert lm.holders("b") == {}


def test_wait_for_graph_reports_blocking_edges():
    env = Environment()
    lm = LockManager(env, lock_wait_timeout_ms=10_000)

    def holder():
        yield lm.acquire("h", "k", LockMode.EXCLUSIVE)
        yield env.timeout(500)
        lm.release_all("h")

    def waiter():
        yield env.timeout(1)
        yield lm.acquire("w", "k", LockMode.EXCLUSIVE)
        lm.release_all("w")

    env.process(holder())
    env.process(waiter())
    env.run(until=100)
    assert lm.wait_for_graph() == {"w": {"h"}}


def test_deadlock_detection_aborts_victim():
    env = Environment()
    lm = LockManager(env, lock_wait_timeout_ms=100_000, enable_deadlock_detection=True)
    outcome = []

    def txn_a():
        yield lm.acquire("A", "x", LockMode.EXCLUSIVE)
        yield env.timeout(10)
        try:
            yield lm.acquire("A", "y", LockMode.EXCLUSIVE)
            outcome.append("A got y")
        except DeadlockError:
            outcome.append("A deadlock")
            lm.release_all("A")

    def txn_b():
        yield lm.acquire("B", "y", LockMode.EXCLUSIVE)
        yield env.timeout(20)
        try:
            yield lm.acquire("B", "x", LockMode.EXCLUSIVE)
            outcome.append("B got x")
        except DeadlockError:
            outcome.append("B deadlock")
            lm.release_all("B")

    env.process(txn_a())
    env.process(txn_b())
    env.run(until=50_000)
    assert "B deadlock" in outcome or "A deadlock" in outcome
    assert lm.stats.deadlocks >= 1


def test_queue_length_and_waiting_transactions():
    env = Environment()
    lm = LockManager(env)

    def holder():
        yield lm.acquire("h", "k", LockMode.EXCLUSIVE)
        yield env.timeout(1000)
        lm.release_all("h")

    def waiter(txn):
        yield env.timeout(1)
        yield lm.acquire(txn, "k", LockMode.EXCLUSIVE)

    env.process(holder())
    env.process(waiter("w1"))
    env.process(waiter("w2"))
    env.run(until=10)
    assert lm.queue_length("k") == 2
    assert lm.waiting_transactions("k") == ["w1", "w2"]


# ------------------------------------------------- timer/heap regression tests
def test_granted_after_wait_cancels_the_lock_wait_timer():
    env = Environment()
    lm = LockManager(env)

    def holder():
        yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        yield env.timeout(10)
        lm.release_all("t1")

    timers = []

    def waiter():
        yield env.timeout(1)
        request_event = lm.acquire("t2", "k", LockMode.EXCLUSIVE)
        timers.append(lm._pending_by_txn["t2"][0].timer)
        yield request_event

    env.process(holder())
    env.process(waiter())
    env.run()
    assert timers[0] is not None and timers[0].cancelled
    assert lm._pending_by_txn == {}


def test_event_heap_does_not_grow_with_granted_after_wait_requests():
    env = Environment()
    lm = LockManager(env)

    def cycle(round_index):
        # A holds the lock briefly; B waits and is granted, then releases.
        yield lm.acquire(f"a{round_index}", "k", LockMode.EXCLUSIVE)
        grant = lm.acquire(f"b{round_index}", "k", LockMode.EXCLUSIVE)
        yield env.timeout(1)
        lm.release_all(f"a{round_index}")
        yield grant
        lm.release_all(f"b{round_index}")

    def driver():
        for i in range(300):
            yield from cycle(i)

    env.process(driver())
    env.run()
    # Every cycle arms one 5000 ms lock-wait timer that is granted after ~1 ms.
    # Before the cancel-on-grant fix the heap kept all 300 stale timers; with
    # lazy cancellation plus compaction it stays bounded.
    assert len(env._queue) < 100
    assert lm._pending_by_txn == {}


def test_withdrawn_pending_request_still_times_out_like_before():
    """release_all withdraws a pending request but leaves its timer armed:
    the wait event must still fail with LockTimeoutError when the timer fires
    (the pre-index implementation behaved this way and callers rely on being
    woken up)."""
    env = Environment()
    lm = LockManager(env, lock_wait_timeout_ms=50)
    failures = []

    def holder():
        yield lm.acquire("t1", "k1", LockMode.EXCLUSIVE)
        yield lm.acquire("t1", "k2", LockMode.EXCLUSIVE)
        yield env.timeout(10)
        # t1 aborts for unrelated reasons while t2 is still waiting on k1.
        lm.release_all("t2")   # withdraws t2's pending request on k1
        lm.release_all("t1")

    def blocked():
        yield env.timeout(1)
        try:
            yield lm.acquire("t2", "k1", LockMode.EXCLUSIVE)
        except LockTimeoutError as exc:
            failures.append((env.now, exc.txn_id))

    env.process(holder())
    env.process(blocked())
    env.run()
    # Deadline 51 ms falls exactly on a 1 ms wheel tick: fires at 51.
    assert failures == [(51.0, "t2")]
    assert lm.stats.timeouts == 1


def test_release_all_is_scoped_to_the_releasing_transaction():
    env = Environment()
    lm = LockManager(env)
    granted = []

    def holder():
        yield lm.acquire("t1", "k", LockMode.EXCLUSIVE)
        yield env.timeout(5)
        lm.release_all("t1")

    def waiter(txn):
        yield env.timeout(1)
        yield lm.acquire(txn, "k", LockMode.SHARED)
        granted.append((env.now, txn))

    env.process(holder())
    env.process(waiter("t2"))
    env.process(waiter("t3"))
    env.run()
    assert granted == [(5.0, "t2"), (5.0, "t3")]


def test_deadlock_detector_ignores_plain_waits_and_acyclic_diamonds():
    """Only a real cycle is a deadlock: a plain wait and a diamond-shaped
    wait-for graph (one holder reached along two paths) must both wait."""
    env = Environment()
    lm = LockManager(env, lock_wait_timeout_ms=100_000, enable_deadlock_detection=True)
    failures = []

    def waiter(txn, key, mode):
        try:
            yield lm.acquire(txn, key, mode)
        except DeadlockError as exc:
            failures.append(exc)

    def scenario():
        yield lm.acquire("D", "d", LockMode.EXCLUSIVE)
        yield lm.acquire("B", "bc", LockMode.SHARED)
        yield lm.acquire("C", "bc", LockMode.SHARED)
        # Plain wait: B -> D.
        env.process(waiter("B", "d", LockMode.EXCLUSIVE))
        # Second path to the same holder: C -> D.
        env.process(waiter("C", "d", LockMode.EXCLUSIVE))
        # A waits on both readers: A -> B, A -> C (a diamond over D).
        env.process(waiter("A", "bc", LockMode.EXCLUSIVE))
        yield env.timeout(10)

    env.process(scenario())
    env.run(until=50)
    assert failures == []
    assert lm.stats.deadlocks == 0
    assert lm.wait_for_graph() == {"A": {"B", "C"}, "B": {"D"}, "C": {"D"}}
    assert lm.waiting_transactions("d") == ["B", "C"]
    assert lm.waiting_transactions("bc") == ["A"]
