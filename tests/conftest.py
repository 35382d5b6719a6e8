"""Shared fixtures: measured allocation peaks of wrapped calls, and a forced sign path."""

from collections import defaultdict
from tracemalloc import get_traced_memory, reset_peak, start, stop

import pytest

from sdze import optimizer, worker


class PeakSpans:
    """Peak bytes each wrapped call allocates above the traced memory at its entry.

    tracemalloc sees numpy buffers.  Its peak is one global counter, so before
    a nested call resets it the peak reached so far is credited to every open
    call: an outer call's peak includes its inner calls'.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._open: list[list[int]] = []  # [bytes at entry, peak above entry]
        self.calls = defaultdict(list)  # name -> [(key, peak bytes)]

    def _credit(self) -> None:
        peak = get_traced_memory()[1]
        for span in self._open:
            span[1] = max(span[1], peak - span[0])

    def measure(self, fn, name: str, key=None):
        """``fn`` wrapped to record ``(key(*args), peak)`` per call under ``name``."""

        def wrapped(*args, **kwargs):
            self._credit()
            reset_peak()
            span = [get_traced_memory()[0], 0]
            self._open.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._credit()
                self._open.pop()
                self.calls[name].append((key(*args) if key else None, span[1]))

        return wrapped

    def wrap(self, module, name: str, key=None) -> None:
        """Measure the calls that look ``name`` up in ``module``."""
        self._monkeypatch.setattr(module, name, self.measure(getattr(module, name), name, key))

    def peaks(self, name: str) -> list[int]:
        return [peak for _, peak in self.calls[name]]


@pytest.fixture
def peak_spans(monkeypatch):
    start()
    try:
        yield PeakSpans(monkeypatch)
    finally:
        stop()


@pytest.fixture
def force_path(monkeypatch):
    """``force_path(concurrent)`` makes the gate pick the concurrent path, or
    the serial one, for every locked estimate: a pinned BLAS, 2 CPUs, and a
    work threshold of 0 or above any work."""

    def force(concurrent: bool) -> None:
        monkeypatch.setattr(worker, "_BLAS_ONE_THREAD", True)
        monkeypatch.setattr(worker, "_cpu_count", lambda: 2)
        monkeypatch.setattr(optimizer, "CONCURRENT_MIN_MACS", 0 if concurrent else float("inf"))

    return force
