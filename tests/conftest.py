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
