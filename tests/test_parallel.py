import threading
import time

import numpy as np
import pytest

from adaptmreg.parallel import CHUNK, run_chunks


def _threads_of(total):
    """The threads that ran the chunks of one run_chunks call."""
    seen = []

    def task(lo, hi):
        time.sleep(0.001)
        seen.append(threading.current_thread())

    run_chunks(task, total)
    return set(seen)


def test_one_pool_per_worker_count(monkeypatch):
    """Calls at one count share the pool's threads; a new count gets a new pool."""
    monkeypatch.setenv("ADAPTMREG_WORKERS", "2")
    first = _threads_of(8 * CHUNK)
    both = first | _threads_of(8 * CHUNK)
    assert len(both) <= 2 and threading.main_thread() not in both
    monkeypatch.setenv("ADAPTMREG_WORKERS", "3")
    third = _threads_of(8 * CHUNK)
    assert third and not third & both
    # the pool the new count replaced lets its threads exit
    for thread in both:
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_failing_chunk_raises_after_every_chunk(monkeypatch):
    """The first failing chunk's error propagates once all chunks have run."""
    monkeypatch.setenv("ADAPTMREG_WORKERS", "2")
    done = []

    def task(lo, hi):
        if lo in (0, 3 * CHUNK):
            raise RuntimeError(f"chunk at {lo}")
        time.sleep(0.01)
        done.append(lo)

    with pytest.raises(RuntimeError, match="chunk at 0$"):
        run_chunks(task, 6 * CHUNK)
    assert sorted(done) == [CHUNK, 2 * CHUNK, 4 * CHUNK, 5 * CHUNK]
    out = np.zeros(4 * CHUNK)
    run_chunks(lambda lo, hi: out.__setitem__(slice(lo, hi), 1.0), out.size)
    assert out.all()
