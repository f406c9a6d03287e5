"""Wall-clock seconds of named pipeline stages, as ``report.json`` records them."""

from __future__ import annotations

import time
from contextlib import contextmanager


@contextmanager
def stage(timings: dict, name: str):
    """Store the seconds the ``with`` block takes in ``timings[name]``."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start
