"""The test-suite helpers that are not oracles: the per-test time limit."""

from __future__ import annotations

import signal
import threading
import time

import pytest

from testutil import TEST_TIME_LIMIT_S, TimeLimitExceeded, time_limit


def test_time_limit_stops_a_spinning_loop():
    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded, match="0.2 s"):
        with time_limit(0.2):
            while True:
                pass
    assert time.monotonic() - start < 5


def test_time_limit_is_not_swallowed_by_except_exception():
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.2):
            while True:
                try:
                    time.sleep(0.01)
                except Exception:
                    pass


def test_the_suite_runs_each_test_under_the_limit():
    """The autouse fixture in conftest.py has armed the timer for this test."""
    delay, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < delay <= TEST_TIME_LIMIT_S and interval == 0


def test_time_limit_restores_the_handler_and_the_outer_timer():
    handler = signal.getsignal(signal.SIGALRM)
    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    with time_limit(60):
        assert signal.getitimer(signal.ITIMER_REAL)[0] <= 60
    assert signal.getsignal(signal.SIGALRM) is handler
    assert outer - 5 < signal.getitimer(signal.ITIMER_REAL)[0] <= outer


def test_time_limit_does_nothing_off_the_main_thread():
    """Only the main thread may set a signal handler; elsewhere the block
    runs unlimited instead of failing."""
    done = []

    def run():
        with time_limit(0.01):
            time.sleep(0.05)
        done.append(True)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert done == [True]
