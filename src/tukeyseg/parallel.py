"""Deterministic fan-out helpers for per-frame work.

``concurrent.futures`` is imported only when a pool is built, so a run at
one job, or with a single item, never loads it and starts no thread.
"""

from __future__ import annotations

import itertools
from collections import deque


def parallel_imap(fn, items, jobs: int = 1):
    """Lazy, order-preserving map, optionally spread over a thread pool.

    Yields ``fn(item)`` for each item in input order, so output is identical
    for any ``jobs`` value as long as ``fn`` is pure. While the caller
    consumes one result, the pool works on the next ``jobs`` items; the item
    after them is taken from ``items`` and submitted only when the caller
    asks for the next result. So at most ``jobs + 1`` items are submitted and
    not yet consumed, counting an item as consumed once the caller asks for
    the next, and as many results are held if the caller drops each one
    before it asks. A worker's exception is raised at that item's position.
    Once the generator ends, raises or is closed, no pool thread is left
    running; a caller that may stop early closes it (``contextlib.closing``)
    rather than waiting for it to be collected.
    """
    items = iter(items)
    head = list(itertools.islice(items, 2 if jobs > 1 else 0))
    if len(head) < 2:
        yield from map(fn, itertools.chain(head, items))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = deque(pool.submit(fn, item) for item in head)
        del head  # the pool holds the first items only until they are consumed
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Eager :func:`parallel_imap`: every result, in input order, as a list."""
    return list(parallel_imap(fn, items, jobs))
