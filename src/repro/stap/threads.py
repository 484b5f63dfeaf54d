"""Kernel threading: split a kernel's leading batch axis across the host's cores.

The paper speeds each task up by dividing its data over processors — the
Doppler task along range cells (Section 5.1, Figure 5), the hard weight
task over (segment, bin) units.  Inside one process the same split is a
thread per contiguous chunk of the batch axis: NumPy's FFT and LAPACK
gufuncs release the GIL, and the split kernels already promise that a
slice's result does not depend on which batch it was computed in (see
:mod:`repro.stap.lsq`), so every chunk count yields the same bits.

:func:`split_batch` is the only entry point the kernels use.  It runs the
first chunk on the calling thread and the rest on a lazily created pool,
and waits for all of them.  The thread budget is the process's CPU
affinity (``len(os.sched_getaffinity(0))``); processes that already
occupy the cores — forked :mod:`repro.rt` workers and :mod:`repro.exec`
pool workers — pin it to 1 with :func:`set_kernel_threads`.  A forked
child drops the pool it inherited and creates its own on first use: the
inherited pool has no threads, and a submit to it would never run.

:func:`run_beside` runs two independent pieces of work at once on the
same pool — the sequential reference's detection and weight branches
(:mod:`repro.stap.reference`).  A caller waiting for work it submitted
first takes back whatever no pool thread has started and runs it itself,
so a split nested in pooled work never waits on a busy pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import wait
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Tuple, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

_Side = TypeVar("_Side")
_Main = TypeVar("_Main")

#: Pinned thread budget, or None to follow the CPU affinity.
_budget: Optional[int] = None
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _forget_pool_after_fork() -> None:
    global _pool, _pool_lock
    # Neither the pool's threads nor a lock another thread held at the
    # fork exist in the child; both are replaced, never shut down.
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool_after_fork)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def kernel_threads() -> int:
    """Threads a split kernel may use in this process."""
    return usable_cpus() if _budget is None else _budget


def set_kernel_threads(count: Optional[int]) -> None:
    """Pin this process's kernel thread budget; None follows the affinity."""
    global _budget
    if count is not None and count < 1:
        raise ValueError(f"kernel thread count must be >= 1, got {count}")
    _budget = count


def split_chunks(total: int, min_chunk: int) -> int:
    """Chunks :func:`split_batch` cuts ``total`` items into: at most
    :func:`kernel_threads`, each of at least ``min_chunk`` items."""
    return max(1, min(kernel_threads(), total // min_chunk))


def _executor() -> ThreadPoolExecutor:
    """The process's pool, created on first use: the calling thread runs
    one chunk, so it holds one thread less than the budget."""
    # Imported here: processes that never split (the modeled simulator,
    # one-thread workers) do not load the thread pool at all.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, kernel_threads() - 1),
                                       thread_name_prefix="stap-kernel")
        return _pool


def _settle(future: Future, call: Callable[[], object]) -> Optional[BaseException]:
    """Finish a submitted ``call`` and return what it raised, or None.

    A call no pool thread has started is cancelled and run here: waiting
    on it could deadlock when every pool thread is busy with work that
    waits on this caller, as in a split nested inside :func:`run_beside`.
    """
    if not future.cancel():
        return future.exception()
    try:
        call()
    except Exception as error:  # re-raised by the caller once all chunks finish
        return error
    return None


def split_batch(run: Callable[[int, int], None], total: int,
                min_chunk: int) -> None:
    """Call ``run(lo, hi)`` over contiguous chunks covering ``[0, total)``.

    Uses :func:`split_chunks` chunks; with one, ``run(0, total)``
    executes on the calling thread alone.  Chunks write disjoint slices
    of the kernel's output, and the call returns only once every chunk
    has finished; a chunk the pool has not started by then runs on the
    calling thread.  The first chunk's error wins, then the others' in
    order.
    """
    chunks = split_chunks(total, min_chunk)
    if chunks == 1:
        run(0, total)
        return
    bounds = [total * index // chunks for index in range(chunks + 1)]
    rest = list(zip(bounds[1:-1], bounds[2:]))
    pool = _executor()
    futures = [pool.submit(run, lo, hi) for lo, hi in rest]
    try:
        run(bounds[0], bounds[1])
    finally:
        errors = [_settle(future, partial(run, lo, hi))
                  for future, (lo, hi) in zip(futures, rest)]
    for error in errors:
        if error is not None:
            raise error


def run_beside(side: Callable[[], _Side],
               main: Callable[[], _Main]) -> Tuple[_Side, _Main]:
    """Run ``side()`` on the pool beside ``main()`` on the calling thread.

    Returns ``(side(), main())`` only once both have finished.  With a
    one-thread budget, or when no pool thread has started ``side`` by the
    time ``main`` returns, ``side`` runs on the calling thread — first
    in the one-thread case, so that the order is side, then main.

    If ``main`` raises, ``side`` is dropped when it has not started and
    waited for when it has, and ``main``'s exception propagates — it wins
    when both raise.  If only ``side`` raises, its exception propagates
    after ``main`` has finished.
    """
    if kernel_threads() == 1:
        return side(), main()
    future = _executor().submit(side)
    try:
        main_result = main()
    except BaseException:
        if not future.cancel():
            wait([future])
        raise
    side_result = side() if future.cancel() else future.result()
    return side_result, main_result
