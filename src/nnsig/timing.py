"""Wall-clock seconds of named pipeline stages, as ``report.json`` records them."""

from __future__ import annotations

import time
from contextlib import contextmanager


@contextmanager
def stage(timings: dict, name: str):
    """Add the seconds the ``with`` block takes to ``timings[name]``, so that
    a stage run in several parts is timed as their sum."""
    start = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
