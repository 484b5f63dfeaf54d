"""Workspace: the per-CPI arrays of a STAP chain, allocated once and reused.

The paper's task loop (Figure 10) gives every task fixed ``inBuf`` /
``outBuf`` buffers that it reuses on every CPI.  A :class:`Workspace` is
that for the kernels of :mod:`repro.stap`: each kernel that takes a
``workspace`` argument writes its scratch arrays, and the array it
returns, into named buffers of the workspace instead of allocating them.
Called without one, the same kernel allocates every array fresh.

A workspace belongs to one thread at a time: two calls that run at once
must not share one.  A kernel's names are its own, so one workspace can
serve a whole chain of kernels — an array a kernel returned stays valid
until the next call of *that* kernel with the same workspace.  Arrays a
caller keeps beyond that (training history, weights, in-flight message
payloads) must come from a call without a workspace.

Each name holds one byte buffer that grows to the largest array asked of
it; a smaller request is a view of its head.  So a workspace serves
callers whose block shapes vary — a simulation's ranks, a history that
fills up — and, once every shape has been seen, allocates nothing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class Workspace:
    """Named arrays reused across calls by the thread that owns them."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def array(self, name: str, shape, dtype) -> np.ndarray:
        """An uninitialized C-ordered array in the buffer ``name``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = np.empty(nbytes, dtype=np.uint8)
            self._buffers[name] = buffer
        return buffer[:nbytes].view(dtype).reshape(shape)


def scratch(workspace: Optional[Workspace], name: str, shape, dtype) -> np.ndarray:
    """``workspace.array(name, shape, dtype)``, or a fresh uninitialized
    array when ``workspace`` is None."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.array(name, shape, dtype)

