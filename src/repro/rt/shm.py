"""Shared-memory ring channels for the process-parallel runtime.

One :class:`ShmChannel` connects exactly one producer replica to one
consumer replica for one pipeline edge.  It is the paper's double buffer
made literal: ``depth`` fixed-size slots of
:class:`multiprocessing.shared_memory.SharedMemory`, a *free queue* of
slot indices (the producer's credits — taking one blocks when the
consumer is behind, which is the backpressure rule) and a *data queue* of
``(slot, cpi)`` descriptors.  Arrays cross the process boundary as numpy
views over the mapped slot, so a CPI-sized payload costs one ``memcpy``
into the slot on send and zero copies on receive; only the tiny
descriptor is pickled.  A producer that can compute straight into the
slot claims it, fills the view and publishes it instead — no copy at all.

Channels are created by the parent before forking and inherited by the
workers, so no shared-memory segment is ever attached by name (which
sidesteps the resource-tracker double-registration of
``SharedMemory(name=...)``); the parent unlinks every slot exactly once
at shutdown.
"""

from __future__ import annotations

import queue as _queue
from typing import Optional, Tuple

import numpy as np

#: Poll interval for abort-aware blocking operations (seconds).  A get
#: with a timeout returns the instant an item arrives; the interval only
#: bounds how stale an abort can go unnoticed on an idle queue.
_POLL_SECONDS = 0.05


class Aborted(Exception):
    """Internal control-flow signal: the runtime's abort event was set
    while a worker was blocked on a channel.  Never escapes the worker."""


def abortable_get(q, abort, timeout: float = _POLL_SECONDS):
    """``q.get()`` that re-checks ``abort`` between short waits."""
    while True:
        try:
            return q.get(timeout=timeout)
        except _queue.Empty:
            if abort.is_set():
                raise Aborted from None


class ShmChannel:
    """A bounded, ordered, single-producer/single-consumer array channel."""

    def __init__(self, ctx, name: str, shape: Tuple[int, ...],
                 dtype, depth: int = 2):
        from multiprocessing import shared_memory

        if depth < 1:
            raise ValueError(f"channel {name}: depth must be >= 1, got {depth}")
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.depth = depth
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        self._slots = [
            shared_memory.SharedMemory(create=True, size=nbytes)
            for _ in range(depth)
        ]
        self._free = ctx.Queue()
        for index in range(depth):
            self._free.put(index)
        self._data = ctx.Queue()

    # -- views -------------------------------------------------------------------
    def view(self, slot: int) -> np.ndarray:
        """The numpy array mapped over one slot (valid until released)."""
        return np.ndarray(self.shape, dtype=self.dtype,
                          buffer=self._slots[slot].buf)

    # -- producer side -----------------------------------------------------------
    def claim(self, abort, wait_observer=None) -> int:
        """Take a free slot for the producer to fill; returns its index.

        Blocks while every slot is still held by the consumer — the
        double-buffering backpressure that keeps at most ``depth`` CPIs of
        this edge in flight per channel.
        """
        if wait_observer is None:
            return abortable_get(self._free, abort)
        return wait_observer(lambda: abortable_get(self._free, abort))

    def publish(self, slot: int, cpi: int) -> None:
        """Hand a filled slot (from :meth:`claim`) to the consumer as ``cpi``."""
        self._data.put((slot, cpi))

    def send(self, array: np.ndarray, cpi: int, abort,
             wait_observer=None) -> None:
        """Copy ``array`` into a claimed slot and publish it for ``cpi``."""
        slot = self.claim(abort, wait_observer)
        self.view(slot)[...] = array
        self.publish(slot, cpi)

    # -- consumer side -----------------------------------------------------------
    def recv(self, expect_cpi: int, abort,
             wait_observer=None) -> Tuple[int, np.ndarray]:
        """Take the next descriptor; returns ``(slot, view)``.

        The runtime's deterministic routing makes every channel FIFO in
        exactly the consumer's processing order, so a descriptor for any
        CPI other than ``expect_cpi`` is a protocol violation, not a
        reordering to buffer around.
        """
        if wait_observer is None:
            slot, cpi = abortable_get(self._data, abort)
        else:
            slot, cpi = wait_observer(lambda: abortable_get(self._data, abort))
        if cpi != expect_cpi:
            raise RuntimeError(
                f"channel {self.name}: received CPI {cpi}, expected "
                f"{expect_cpi} (routing protocol violation)"
            )
        return slot, self.view(slot)

    def release(self, slot: int) -> None:
        """Return a received slot to the producer (consumer is done with
        the view — it must not be touched afterwards)."""
        self._free.put(slot)

    # -- lifecycle ---------------------------------------------------------------
    def destroy(self) -> None:
        """Close and unlink every slot (parent only, after joining workers)."""
        for shm in self._slots:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        for q in (self._free, self._data):
            q.close()

    @property
    def slot_bytes(self) -> int:
        return self._slots[0].size if self._slots else 0
