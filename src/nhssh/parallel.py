"""Order-preserving thread map for independent grid points.

Results are collected in submission order, so output never depends on the
schedule. The thread count comes from the NHSSH_THREADS environment variable
(default 1, i.e. plain sequential loops).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

THREADS_ENV_VAR = "NHSSH_THREADS"


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {raw!r}")
    return n


def thread_map(fn: Callable[[_T], _R], items: Iterable[_T], threads: int = 1) -> list[_R]:
    """Apply fn to every item, in order, on up to `threads` worker threads."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
