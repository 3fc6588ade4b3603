"""Tests for the counter scopes of :mod:`repro.perf`."""

import sys
import threading

import pytest

from repro.perf import PERF


@pytest.fixture(autouse=True)
def clean():
    PERF.reset("test.scope.")
    PERF.reset("time.test.scope.")
    yield
    PERF.reset("test.scope.")
    PERF.reset("time.test.scope.")


class TestScopes:
    def test_nested_scopes_fold_into_the_enclosing_scope(self):
        with PERF.scope():
            PERF.incr("test.scope.outer")
            with PERF.scope():
                assert PERF.get("test.scope.outer") == 0
                PERF.incr("test.scope.inner", 2)
                PERF.incr("test.scope.score", 0.5)
                PERF.add_time("test.scope.t", 0.25)
            assert PERF.snapshot() == {
                "test.scope.outer": 1,
                "test.scope.inner": 2,
                "test.scope.score": 0.5,
                "time.test.scope.t": 0.25,
            }
            assert PERF.get("test.scope.inner") == 2
        assert PERF.get("test.scope.outer") == 1
        assert PERF.get("test.scope.inner") == 2
        assert PERF.get("test.scope.score") == 0.5
        assert PERF.get_time("test.scope.t") == 0.25

    def test_a_block_that_raises_still_folds(self):
        with pytest.raises(RuntimeError):
            with PERF.scope():
                PERF.incr("test.scope.partial")
                raise RuntimeError("boom")
        assert PERF.get("test.scope.partial") == 1

    def test_reset_inside_a_scope_leaves_the_enclosing_counters(self):
        PERF.incr("test.scope.kept", 3)
        with PERF.scope():
            PERF.incr("test.scope.kept")
            PERF.reset()
            assert PERF.snapshot() == {}
            PERF.incr("test.scope.after")
        assert PERF.get("test.scope.kept") == 3
        assert PERF.get("test.scope.after") == 1

    def test_another_threads_scope_is_invisible(self):
        entered = threading.Event()
        bumped = threading.Event()
        seen = {}

        def task():
            with PERF.scope():
                PERF.incr("test.scope.theirs")
                entered.set()
                assert bumped.wait(10)
                seen.update(PERF.snapshot())

        thread = threading.Thread(target=task)
        thread.start()
        try:
            assert entered.wait(10)
            # the other thread's open scope is not this thread's
            assert PERF.get("test.scope.theirs") == 0
            PERF.incr("test.scope.mine")
            with PERF.scope():
                assert PERF.get("test.scope.theirs") == 0
        finally:
            bumped.set()
            thread.join(10)
        assert not thread.is_alive()
        assert seen == {"test.scope.theirs": 1}
        assert PERF.get("test.scope.theirs") == 1
        assert PERF.get("test.scope.mine") == 1

    def test_merge_folds_floats_and_phases(self):
        with PERF.scope():
            PERF.merge({"score": 0.5, "hits": 2, "zero": 0, "flag": True,
                        "name": "x"}, "test.scope")
            PERF.merge({"time.test.scope.t": 0.25})
            assert PERF.snapshot() == {
                "test.scope.score": 0.5,
                "test.scope.hits": 2,
                "time.test.scope.t": 0.25,
            }


def test_concurrent_updates_and_reads_of_the_root():
    """Threads bump one root counter, fold scopes into the root, and add
    and clear phases while another thread snapshots the root: with the
    thread switch interval shortened, no update is lost and no read sees
    a table change size under it."""
    threads_n, rounds = 4, 2000
    errors = []
    reading = threading.Event()
    reading.set()

    def bump():
        for _ in range(rounds):
            PERF.incr("test.scope.shared")

    def fold():
        for _ in range(rounds // 10):
            with PERF.scope():
                PERF.incr("test.scope.shared", 10)

    def churn_phases(slot):
        name = "test.scope.p{}.".format(slot)
        while reading.is_set():
            for i in range(100):
                PERF.add_time(name + str(i), 0.001)
            PERF.reset("time." + name)

    def read():
        try:
            for _ in range(rounds // 4):
                PERF.snapshot()
        except RuntimeError as exc:  # a table resized mid-iteration
            errors.append(exc)
        finally:
            reading.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump) for _ in range(threads_n)]
        threads += [threading.Thread(target=fold) for _ in range(threads_n)]
        threads += [
            threading.Thread(target=churn_phases, args=(slot,))
            for slot in range(threads_n)
        ]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        reading.clear()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert PERF.get("test.scope.shared") == 2 * threads_n * rounds
