"""Order-preserving fan-out of independent work items to worker processes."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")


def pmap(func: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """[func(item) for item in items], computed by up to `jobs` processes.

    Results come back in item order, so the output is the same for any job
    count. func and the items go to the workers pickled; with jobs == 1, or
    fewer than two items, they are mapped in-process and need not pickle.
    No more workers start than there are items: the pool forks all of them
    at the first submit, whether they get work or not. Its one caller is
    `align.decode_once`, which spreads the model decodes of `align` and
    `restore`.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) < 2:
        return [func(item) for item in items]
    workers = min(jobs, len(items))
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items, chunksize=chunk))
