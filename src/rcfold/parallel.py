"""Deterministic parallel map over independent work items.

Workers receive fully specified, picklable items and return picklable
results; results come back in submission order, so a report assembled
from them is identical for any worker count.
"""
from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1) -> list[R]:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: multiprocessing is a large share of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items, chunksize=chunk))
