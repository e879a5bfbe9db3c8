"""Shared test fixtures."""

from __future__ import annotations

import contextlib
import signal
import sys

import numpy as np
import pytest

from wlab.poly import Exact, Polynomial, exact_coeffs


def from_roots(roots, leading: complex = 1.0) -> Polynomial:
    """The polynomial leading * prod (z - r) over the given roots."""
    return Polynomial((leading * np.atleast_1d(np.poly(np.asarray(roots, dtype=complex))))[::-1])


def exact(p: Polynomial) -> Exact:
    """The float polynomial p read at its binary values: a positive integer
    multiple of p over Z[i], with the same roots."""
    return exact_coeffs(p.coeffs)[0]


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


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(module, name)``: the positional arguments of every later
    call to ``module.name``.

    The counting wrapper is bound into every ``wlab`` module that holds the
    function, so a call is seen whichever module's binding makes it.  Given a
    class, it replaces the method on the class (``Polynomial, "__call__"``).
    """

    def record(module, name: str) -> list[tuple]:
        original = getattr(module, name)
        calls: list[tuple] = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        if isinstance(module, type):
            monkeypatch.setattr(module, name, counted)
        for modname, mod in list(sys.modules.items()):
            if modname == "wlab" or modname.startswith("wlab."):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    return record
