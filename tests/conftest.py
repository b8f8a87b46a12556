"""Shared fixtures."""

import pytest

from fpp import algorithms


@pytest.fixture
def forks(monkeypatch):
    """The start methods the sweep asks ``multiprocessing.get_context`` for,
    in order; the calls go through to the real function."""
    calls = []
    get_context = algorithms.multiprocessing.get_context

    def recording(method):
        calls.append(method)
        return get_context(method)

    monkeypatch.setattr(algorithms.multiprocessing, "get_context", recording)
    return calls


@pytest.fixture
def forks_from_n8(monkeypatch):
    """2^14 states per worker, so that two workers fork from n=8 on: the
    pool's mechanism tests fork at n=8, the smallest n where two can."""
    monkeypatch.setattr(algorithms, "_STATES_PER_WORKER", 2**14)
