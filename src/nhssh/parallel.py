"""Order-preserving thread map for independent grid points.

Results are collected in submission order, so output never depends on the
schedule. The thread count comes from the NHSSH_THREADS environment variable
(default 1, i.e. plain sequential loops). For the whole map, numpy's OpenBLAS
runs on one thread, so the workers are the only parallelism and serial and
threaded maps compute the same bits. ``scenarios.run_scenario`` holds the same
pin around every scenario, so no output depends on the core count or on
OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import functools
import itertools
import os
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

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


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's OpenBLAS, or None if not exported.

    dlsym on numpy's linalg extension also searches the libraries it links.
    """
    import ctypes

    import numpy as np

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    # numpy 2.x wheels bundle scipy-openblas with 64-bit integers: try that first.
    for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block on one BLAS thread; restore the previous count after.

    The count is process-wide: blocks overlapping in time on different
    threads would undo each other's pin, and nhssh never overlaps them; a
    nested block leaves the count at 1.
    """
    api = _blas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def thread_map(fn: Callable[[_T], _R], items: Iterable[_T], threads: int = 1) -> list[_R]:
    """Apply fn to every item, in order, on up to `threads` worker threads,
    each of fn's BLAS calls on one BLAS thread."""
    items = list(items)
    with _one_blas_thread():
        if threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        # Imported here: concurrent.futures loads logging and queue, which a
        # serial map never needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
