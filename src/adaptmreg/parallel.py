"""Deterministic work splitting.

Replicate loops and the denoiser's pixels are cut into a fixed chunk grid,
so results depend only on the grid (and, for Monte Carlo, on one noise
substream per chunk), never on how many workers happened to execute the
chunks. Threads help only where a chunk's time goes to numpy calls that
release the GIL, such as the denoiser's gathers and sorts, and a Monte
Carlo chunk's noise, which noise.sample_rows draws in one call per chunk.
On two vCPUs, an in-process pass of the benchmark's 1d table (its twelve
commands) took 1.75-2.34 s with one worker and 1.27-1.41 s with two
(medians 2.03 and 1.39 s, 1.46x), and an in-process 1024x1024 8-bit
denoise 1.12-1.34 s against 0.66-0.87 s (medians 1.19 and 0.74 s, 1.6x).
The denoiser cuts its pixels into chunks of imaging.DENOISE_CHUNK; CHUNK,
the Monte Carlo grid, also picks each chunk's noise substream.

The worker count belongs to the process: ADAPTMREG_WORKERS, read on every
run_chunks call, else the cpu count. One thread pool per process serves
every call and is made again only when that count changes. A task must
never call run_chunks: it would wait on the pool that runs it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache
from typing import Callable

from .errors import ValidationError

CHUNK = 1024

WORKERS_ENV = "ADAPTMREG_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit value, then the ADAPTMREG_WORKERS variable, then cpu count."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError as exc:
                raise ValidationError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
        else:
            workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValidationError("worker count must be at least 1")
    return workers


def chunk_ranges(total: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


@lru_cache(maxsize=1)
def _pool(workers: int) -> ThreadPoolExecutor:
    # an evicted pool has no other reference, so its idle threads exit
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="adaptmreg")


def run_chunks(task: Callable[[int, int], None], total: int,
               workers: int | None = None, chunk: int = CHUNK) -> None:
    """Apply task(lo, hi) over the fixed chunk grid.

    The task must write results into preallocated slots indexed by replicate;
    return values are discarded, which keeps outputs independent of
    scheduling order and of the worker count. If a chunk raises, its
    exception propagates once every chunk of the call has finished.
    """
    ranges = chunk_ranges(total, chunk)
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(ranges) <= 1:
        for lo, hi in ranges:
            task(lo, hi)
        return
    futures = [_pool(n_workers).submit(task, lo, hi) for lo, hi in ranges]
    wait(futures)
    for future in futures:
        future.result()
