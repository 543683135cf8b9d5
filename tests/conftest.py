import tracemalloc

import numpy as np
import pytest

from lsequiv import _linalg


def _traced_peak(fn):
    """Peak traced heap bytes while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def linalg_calls(monkeypatch):
    """watch(*names) replaces those numpy.linalg functions by wrappers that
    log each call as (name, shape of its first argument); it returns the log."""

    def watch(*names):
        calls = []
        for name in names:
            real = getattr(np.linalg, name)

            def wrapper(*args, _real=real, _name=name, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, wrapper)
        return calls

    return watch


@pytest.fixture
def lapack_calls(monkeypatch):
    """watch() replaces _linalg._lapack by a wrapper that logs each LAPACK
    call as (routine, shape of its first argument); it returns the log."""

    def watch():
        calls = []
        real = _linalg._lapack

        def wrapper(routine, *args, **kwargs):
            calls.append((routine, np.shape(args[0])))
            return real(routine, *args, **kwargs)

        monkeypatch.setattr(_linalg, "_lapack", wrapper)
        return calls

    return watch
