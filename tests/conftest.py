"""A time limit on every test, so that a test that hangs fails instead of
hanging the suite.  The slowest test takes about 4 s."""

import signal

import pytest

TEST_TIME_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Not an ``Exception``, so that Hypothesis passes it on instead of
    shrinking and replaying the example with no timer armed; pytest still
    records it as a failure of the one test."""


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past its time limit of {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
