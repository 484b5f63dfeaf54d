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
affinity (``len(os.sched_getaffinity(0))``).  A forked child drops the
pool it inherited and creates its own on first use: the inherited pool
has no threads, and a submit to it would never run.

Processes that already occupy the cores run on one thread.  Forked
:mod:`repro.rt` workers do so BLAS included: their parent forks them
inside :func:`one_thread_children`, which pins its own kernel budget and
every loaded OpenBLAS to one thread for the duration, so each child
inherits both pins.  :mod:`repro.exec` pool workers set their own kernel
budget to one thread when they start and keep the BLAS default.  The
BLAS pin has to be set
before the fork: OpenBLAS shuts its thread server down at every fork, a
child that inherits one thread never restarts it, while setting the count
inside the child starts the server, whose helper threads then spin on
the child's cores after every BLAS call.

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
from contextlib import contextmanager
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, NamedTuple,
                    Optional, Tuple, TypeVar)

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

_Side = TypeVar("_Side")
_Main = TypeVar("_Main")

#: Pinned thread budget, or None to follow the CPU affinity.
_budget: Optional[int] = None
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()
#: OpenBLAS thread-count entry points, tried in order: NumPy's and
#: SciPy's ``libscipy_openblas*``, then a plain ``libopenblas``.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))
#: Library path -> its bound entry points (None: no known symbol).
_openblas_bound: Dict[str, Optional["OpenBLAS"]] = {}


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


class OpenBLAS(NamedTuple):
    """One OpenBLAS mapped into this process and its thread-count calls."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _bind_openblas(path: str) -> Optional[OpenBLAS]:
    import ctypes

    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        get_threads = getattr(library, get_name, None)
        set_threads = getattr(library, set_name, None)
        if get_threads is not None and set_threads is not None:
            get_threads.argtypes, get_threads.restype = (), ctypes.c_int
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            return OpenBLAS(path, get_threads, set_threads)
    return None


def openblas_libraries() -> Tuple[OpenBLAS, ...]:
    """Every OpenBLAS mapped into this process, in path order.

    Read from ``/proc/self/maps``, so a library loaded after an earlier
    call is found too; each path is bound once and kept, and forked
    children inherit the bindings.  Empty without ``/proc`` or OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            # The last field is the mapped path, or the inode for an
            # anonymous mapping.
            mapped = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return ()
    paths = sorted(path for path in mapped
                   if "openblas" in os.path.basename(path))
    for path in paths:
        if path not in _openblas_bound:
            _openblas_bound[path] = _bind_openblas(path)
    return tuple(library for library in map(_openblas_bound.get, paths)
                 if library is not None)


@contextmanager
def one_thread_children() -> Iterator[Tuple[OpenBLAS, ...]]:
    """Pin this process's kernel budget and every loaded OpenBLAS to one
    thread for the block, then restore both; fork workers inside it.

    Yields the libraries pinned — empty when there is no OpenBLAS to pin
    (or no ``/proc`` to find it with), in which case only the kernel
    budget is pinned.  Restoring a larger BLAS count restarts this
    process's BLAS helper threads, which spin for a while: leave the
    block once the children are done, not while they run.
    """
    global _budget
    libraries = openblas_libraries()
    budget = _budget
    counts = [library.get_threads() for library in libraries]
    _budget = 1
    for library in libraries:
        library.set_threads(1)
    try:
        yield libraries
    finally:
        _budget = budget
        for library, count in zip(libraries, counts):
            library.set_threads(count)
