"""Shared test fixtures."""

from __future__ import annotations

import contextlib
import signal

import pytest


class TimeLimitExceeded(BaseException):
    """Raised by the alarm; not an Exception, so no handler in wlab swallows it."""


@contextlib.contextmanager
def _time_limit(seconds: float):
    def alarm(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(s): ...`` fails the test instead of hanging past s seconds."""
    return _time_limit
