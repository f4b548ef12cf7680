"""Deterministic fan-out helper for per-frame work.

``concurrent.futures`` is imported only when a pool is built, so a run at
one job, or with a single item, never loads it.
"""

from __future__ import annotations


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Order-preserving map, optionally spread over a thread pool.

    Results are always collected in input order, so output is identical
    for any ``jobs`` value as long as ``fn`` is pure.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
