"""Thread-count policy: BQC_THREADS caps the worker threads of map_ordered.

No bqcontrol module uses this any more; it stays only because bench/run.py
imports map_ordered and worker_count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count():
    """Number of worker threads; BQC_THREADS overrides the default."""
    env = os.environ.get("BQC_THREADS")
    if env is not None:
        try:
            k = int(env)
        except ValueError:
            raise ValueError(f"BQC_THREADS must be an integer, got {env!r}")
        return max(1, k)
    return min(4, os.cpu_count() or 1)


def map_ordered(fn, items):
    """Map preserving input order; parallel only when workers > 1.

    Results are reduced in index order, so any downstream tie-breaking is
    independent of scheduling.
    """
    items = list(items)
    k = worker_count()
    if k <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, items))
