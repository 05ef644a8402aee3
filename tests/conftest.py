"""Shared fixtures: parsed library groups and memoized classification
reports (the reports are expensive; several suites read the same ones).
Also a deadline on each phase of every test, so a hang fails loudly."""

from __future__ import annotations

import contextlib
import signal
import threading

import pytest

from arclab.groups import parse_group
from arclab.valuations import classification_report

LIBRARY = {
    "k1": "lex(Z, Q)",
    "k2": "lex(omega_tower(start=0))",
    "zpluspi": "lex(real(1, pi))",
    "c0": "lex(poly_module(Zloc(2), pi))",
}

# the wider pool the differential criteria sample over (all effective)
EFFECTIVE_POOL = [
    "lex(Z, Q)",
    "lex(Z, Z)",
    "lex(real(1, pi))",
    "lex(Zloc(2), Q)",
    "lex(Q)",
]


@pytest.fixture(scope="session")
def groups():
    return {name: parse_group(dsl) for name, dsl in LIBRARY.items()}


@pytest.fixture(scope="session")
def reports(groups):
    """Reports at the CLI's default configuration, matching the goldens."""
    return {
        name: classification_report(G, display_primes=(2, 3, 5, 7), samples=200, seed=42)
        for name, G in groups.items()
    }



# far above the slowest test (about 10 s), so only a hang reaches it
DEADLINE_S = 120


class DeadlineExceeded(BaseException):
    """A test phase outlived its deadline.  Not an Exception, so neither the
    code under test nor Hypothesis (which would shrink by rerunning the
    hang) catches it; pytest reports it as the phase's failure."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded after seconds, by SIGALRM; the previous
    handler and timer come back on exit.  Without SIGALRM (not POSIX), or
    off the main thread, where Python runs no signal handler, the body
    runs unbounded."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    prev = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *prev)
        signal.signal(signal.SIGALRM, old)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with deadline(DEADLINE_S):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with deadline(DEADLINE_S):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    with deadline(DEADLINE_S):
        yield
