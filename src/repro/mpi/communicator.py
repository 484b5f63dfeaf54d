"""World and Communicator: rank management and point-to-point matching.

Matching semantics follow MPI:

* a receive matches the *earliest* posted, not-yet-matched send whose
  (source, tag) satisfies its pattern (wildcards allowed);
* messages between a fixed (source, dest, tag) triple are non-overtaking;
* each communicator is an isolated matching context (a message sent on one
  communicator can never match a receive on another).

Transfer protocol, as in real MPI implementations:

* messages up to ``eager_threshold`` bytes use the **eager** protocol: the
  send request completes as soon as the message is handed to the transport
  (buffered); small control traffic therefore never deadlocks on posting
  order;
* larger messages use **rendezvous**: the wire transfer starts when send
  and receive are both posted, and the send request completes when the
  payload arrives.  This throttles producers (double buffering bounds how
  far ahead a task can run) and makes the receiver's blocked time include
  waiting-for-the-sender — exactly the quantity the paper's "recv" columns
  report (Section 7.2: "timing results shown in the tables contain idle
  time for waiting for the corresponding task to complete").
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.des import Simulator
from repro.des.backends.plan import TAG_BITS, TAG_LIMIT
from repro.des.event import PENDING, TRIGGERED
from repro.errors import ConfigurationError, MPIError
from repro.machine.network import Network
from repro.machine.paragon import Machine
from repro.mpi.datatypes import Message, payload_nbytes, ANY_SOURCE, ANY_TAG
from repro.mpi.request import SendRequest, RecvRequest


class _PendingSend:
    """A posted send waiting for its matching receive."""

    __slots__ = ("request", "message", "src_world", "dst_world", "seq", "record")

    def __init__(self, request, message, src_world, dst_world, seq):
        self.request = request
        self.message = message
        self.src_world = src_world
        self.dst_world = dst_world
        self.seq = seq
        #: Observability record (post/match/complete stamps); None unless a
        #: :class:`~repro.obs.TraceSink` is attached to the world.
        self.record = None


class World:
    """All ranks of one simulation run, placed onto machine nodes.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    machine:
        Machine description; its network is instantiated here.
    num_ranks:
        Number of world ranks.
    placement:
        Optional mapping rank -> mesh node id (default: identity).  The
        pipeline places each task's ranks on a contiguous block of nodes,
        mirroring the paper's task-to-partition mapping.
    contention:
        Passed to :meth:`Machine.build_network`.
    eager_threshold:
        Messages of at most this many bytes complete their send request at
        posting time (buffered eager protocol).
    backend:
        Simulator backend: an :class:`~repro.des.backends.EngineBackend`
        instance, a backend name, or None for the simulator's own backend
        (a plain :class:`Simulator` keeps the reference network and
        matcher, so existing call sites are unchanged).  A backend that is
        not the simulator's own is a ``ConfigurationError``: each core
        runs only its own network.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        num_ranks: int,
        placement: Optional[Sequence[int]] = None,
        contention="endpoint",
        eager_threshold: int = 16 * 1024,
        backend=None,
    ):
        from repro.des.backends import EngineBackend, get_backend, timed_plan

        if num_ranks < 1:
            raise MPIError(f"world needs at least 1 rank, got {num_ranks}")
        machine.check_node_budget(num_ranks if placement is None else max(placement) + 1)
        self.sim = sim
        self.machine = machine
        if not isinstance(backend, EngineBackend):
            backend = get_backend(backend if backend is not None else sim.backend)
        if backend.name != sim.backend:
            raise ConfigurationError(
                f"backend {backend.name!r} cannot drive a {sim.backend!r} "
                f"simulator; create the simulator with "
                f"get_backend({backend.name!r}).create_simulator()"
            )
        self.backend = backend.name
        #: Lowered per-run tables (None on the reference backend).
        self.engine_plan = timed_plan(
            backend, machine.mesh, machine.network_cost, contention
        )
        self.network: Network = backend.create_network(
            sim, machine.mesh, machine.network_cost, contention, self.engine_plan
        )
        self.network.bind_deliver(self._deliver)
        self.num_ranks = num_ranks
        if placement is None:
            placement = list(range(num_ranks))
        if len(placement) != num_ranks:
            raise MPIError(
                f"placement has {len(placement)} entries for {num_ranks} ranks"
            )
        self.placement = list(placement)
        self.eager_threshold = int(eager_threshold)
        self._context_counter = itertools.count()
        self._send_seq = itertools.count()
        # Matching state.  Sends always carry a concrete (source, tag), so
        # unmatched sends live in exact-key FIFO queues; one posted-order
        # sequence number per operation ties the structures together and
        # preserves MPI's earliest-posted / non-overtaking semantics.
        # Receives with a wildcard go to a per-destination side queue that
        # stays tiny (the pipeline itself never posts wildcards).
        #   exact key: (context_id, dst_world, src_world, tag)
        #   dest key:  (context_id, dst_world)
        # With an engine plan, both keys are packed into single integers
        # (tag in the low TAG_BITS) — one int hash per matcher probe
        # instead of a tuple allocation plus four hashes.
        self._sends_exact: dict = {}
        self._send_keys: dict = {}
        self._recvs_exact: dict = {}
        self._recvs_wild: dict = {}
        self._packed = (
            self.engine_plan is not None and self.engine_plan.pack_match_keys
        )
        #: Matching-probe counter: queue entries examined while matching
        #: (the figure the indexed fast path drives toward ~1 per message).
        self.match_probes = 0
        #: Point-to-point operations posted (sends, receives).
        self.sends_posted = 0
        self.recvs_posted = 0
        #: Wildcard traffic: receives posted with ANY_SOURCE/ANY_TAG, and
        #: matches that involved one.  The pipeline itself posts none, so
        #: these stay on the cold path; nonzero values flag a workload the
        #: indexed matcher cannot serve at ~1 probe/op.
        self.wildcard_recvs = 0
        self.wildcard_hits = 0
        #: Optional :class:`~repro.obs.TraceSink` recording per-message
        #: post -> match -> complete lifecycles.  Attached by the pipeline;
        #: when None (the default) the matcher pays one ``is None`` check
        #: per send and nothing else.
        self.obs = None
        #: World communicator spanning every rank.
        self.comm = Communicator(self, list(range(num_ranks)))

    # -- rank spawning -----------------------------------------------------------
    def spawn(
        self,
        rank: int,
        program: Callable[["RankContext"], Generator],
        name="",
        comm: Optional["Communicator"] = None,
    ):
        """Run ``program(ctx)`` as the process for world rank ``rank``.

        ``comm`` binds the context to a sub-communicator (``ctx.rank``
        becomes the local rank there); default is the world communicator.
        """
        from repro.mpi.context import RankContext

        ctx = RankContext(self, comm or self.comm, rank)
        return self.sim.process(program(ctx), name=name or f"rank{rank}")

    def spawn_all(self, program: Callable[["RankContext"], Generator]):
        """Spawn ``program`` on every world rank; returns the processes."""
        return [self.spawn(r, program) for r in range(self.num_ranks)]

    def node_of(self, world_rank: int) -> int:
        """Mesh node hosting ``world_rank``."""
        return self.placement[world_rank]

    # -- matching core -------------------------------------------------------------
    # A receive must match the earliest-posted, not-yet-matched send whose
    # (source, tag) satisfies its pattern — and vice versa.  With exact-key
    # FIFO queues the earliest exact candidate is the front of one deque;
    # wildcard candidates are compared by posted-order sequence number, so
    # the indexed structures reproduce the linear scan's choices exactly.
    def _post_send(
        self,
        context_id: int,
        src_world: int,
        dst_world: int,
        tag: int,
        payload: Any,
        nbytes: int,
    ) -> SendRequest:
        sim = self.sim
        request = SendRequest(sim, dest=dst_world, tag=tag, nbytes=nbytes)
        message = Message(
            source=src_world, tag=tag, payload=payload, nbytes=nbytes, sent_at=sim._now
        )
        pending = _PendingSend(request, message, src_world, dst_world, next(self._send_seq))
        self.sends_posted += 1
        if self.obs is not None:
            pending.record = self.obs.new_message(
                src_world, dst_world, tag, nbytes, self.sim.now
            )
        if self._packed:
            ranks = self.num_ranks
            dest_key = context_id * ranks + dst_world
            if tag < TAG_LIMIT:
                exact_key = ((dest_key * ranks + src_world) << TAG_BITS) | tag
            else:
                exact_key = self._pack_key(dest_key, src_world, tag)  # raises
        else:
            dest_key = (context_id, dst_world)
            exact_key = (context_id, dst_world, src_world, tag)
        probes = 0

        # Emptied queues are dropped from their dicts: every pipeline tag
        # carries its CPI index, so a key is never reused once drained and
        # keeping it would grow the matcher by one deque per message.
        exact_queue = self._recvs_exact.get(exact_key)
        exact_cand = exact_queue[0] if exact_queue else None
        if exact_cand is not None:
            probes += 1
        wild_cand = None
        wild_idx = -1
        wild_queue = self._recvs_wild.get(dest_key) if self._recvs_wild else None
        if wild_queue:
            for idx, entry in enumerate(wild_queue):
                probes += 1
                if entry[0].matches(src_world, tag):
                    wild_cand, wild_idx = entry, idx
                    break
        self.match_probes += probes

        if exact_cand is not None and (wild_cand is None or exact_cand[1] < wild_cand[1]):
            exact_queue.popleft()
            if not exact_queue:
                del self._recvs_exact[exact_key]
            self._start_transfer(pending, exact_cand[0])
            return request
        if wild_cand is not None:
            del wild_queue[wild_idx]
            if not wild_queue:
                del self._recvs_wild[dest_key]
            self.wildcard_hits += 1
            self._start_transfer(pending, wild_cand[0])
            return request

        queue = self._sends_exact.get(exact_key)
        if queue is None:
            queue = self._sends_exact[exact_key] = deque()
            self._send_keys.setdefault(dest_key, set()).add(exact_key)
        queue.append(pending)
        if nbytes <= self.eager_threshold:
            # Eager protocol: the message is buffered by the transport; the
            # sender's buffer is immediately reusable.  (Inlined
            # Event.succeed(None): same writes, same schedule.)
            request._ok = True
            request._state = TRIGGERED
            sim._seq += 1
            heappush(sim._queue, (sim._now, 1, sim._seq, request))
        return request

    def _post_recv(
        self, context_id: int, dst_world: int, source: int, tag: int
    ) -> RecvRequest:
        request = RecvRequest(self.sim, source=source, tag=tag)
        self.recvs_posted += 1

        packed = self._packed
        if packed:
            dest_key = context_id * self.num_ranks + dst_world
        else:
            dest_key = (context_id, dst_world)

        if source != ANY_SOURCE and tag != ANY_TAG:
            if packed:
                if tag < TAG_LIMIT:
                    exact_key = ((dest_key * self.num_ranks + source) << TAG_BITS) | tag
                else:
                    exact_key = self._pack_key(dest_key, source, tag)  # raises
            else:
                exact_key = (context_id, dst_world, source, tag)
            queue = self._sends_exact.get(exact_key)
            if queue:
                self.match_probes += 1
                pending = queue.popleft()
                if not queue:
                    self._discard_send_key(dest_key, exact_key)
                self._start_transfer(pending, request)
                return request
            recv_queue = self._recvs_exact.get(exact_key)
            if recv_queue is None:
                recv_queue = self._recvs_exact[exact_key] = deque()
            recv_queue.append((request, next(self._send_seq)))
            return request

        # Wildcard receive: earliest matching send across this
        # destination's exact-key queues (each front is that key's oldest).
        self.wildcard_recvs += 1
        keys = self._send_keys.get(dest_key)
        best = None
        best_key = None
        if keys:
            for key in keys:
                self.match_probes += 1
                if packed:
                    cand_src = (key >> TAG_BITS) % self.num_ranks
                    cand_tag = key & (TAG_LIMIT - 1)
                else:
                    cand_src, cand_tag = key[2], key[3]
                if request.matches(cand_src, cand_tag):
                    front = self._sends_exact[key][0]
                    if best is None or front.seq < best.seq:
                        best, best_key = front, key
        if best is not None:
            queue = self._sends_exact[best_key]
            queue.popleft()
            if not queue:
                self._discard_send_key(dest_key, best_key)
            self.wildcard_hits += 1
            self._start_transfer(best, request)
            return request
        self._recvs_wild.setdefault(dest_key, deque()).append(
            (request, next(self._send_seq))
        )
        return request

    def _pack_key(self, dest_key: int, src_world: int, tag: int) -> int:
        """One-integer (context, dst, src, tag) key for the lowered matcher."""
        if tag >= TAG_LIMIT:
            raise MPIError(
                f"tag {tag} exceeds the lowered matcher's packed-key bound "
                f"({TAG_LIMIT - 1}); use the 'python' simulator backend for "
                "arbitrarily large tags"
            )
        return ((dest_key * self.num_ranks + src_world) << TAG_BITS) | tag

    def _discard_send_key(self, dest_key, exact_key) -> None:
        """Forget a drained exact-key send queue."""
        del self._sends_exact[exact_key]
        keys = self._send_keys.get(dest_key)
        if keys is not None:
            keys.discard(exact_key)
            if not keys:
                del self._send_keys[dest_key]

    def _start_transfer(self, pending: _PendingSend, recv_req: RecvRequest) -> None:
        record = pending.record
        if record is not None:
            record.t_recv_post = recv_req.posted_at
            record.t_match = self.sim._now
        placement = self.placement
        self.network.transfer_matched(
            placement[pending.src_world], placement[pending.dst_world],
            pending, recv_req,
        )

    def _deliver(self, pending: _PendingSend, recv_req: RecvRequest) -> None:
        """Complete a transferred message: the one delivery body.

        Both networks call it when the payload arrives.  The two request
        completions are inlined ``Event.succeed`` calls (same state writes,
        same one-sequence-number schedule at the NORMAL priority), saving
        two call chains on every message.
        """
        sim = self.sim
        now = sim._now
        message = pending.message
        message.delivered_at = now
        record = pending.record
        if record is not None:
            record.t_complete = now
        comm = recv_req.comm
        if comm is not None:
            # Translate world source rank to the receiver's local rank.
            message.source = comm._local_of_world.get(message.source, message.source)
        request = pending.request
        queue = sim._queue
        if request._state == PENDING:  # eager sends completed early
            request._ok = True
            request._state = TRIGGERED
            sim._seq += 1
            heappush(queue, (now, 1, sim._seq, request))
        recv_req._ok = True
        recv_req._value = message
        recv_req._state = TRIGGERED
        sim._seq += 1
        heappush(queue, (now, 1, sim._seq, recv_req))

    # -- diagnostics ----------------------------------------------------------------
    def outstanding_operations(self) -> int:
        """Unmatched sends + receives across all contexts (0 at a clean end)."""
        return (
            sum(len(q) for q in self._sends_exact.values())
            + sum(len(q) for q in self._recvs_exact.values())
            + sum(len(q) for q in self._recvs_wild.values())
        )


class Communicator:
    """A rank subset with its own isolated matching context.

    All rank arguments to communicator methods are *local* ranks within the
    communicator, as in MPI.
    """

    def __init__(self, world: World, world_ranks: Sequence[int]):
        if len(set(world_ranks)) != len(world_ranks):
            raise MPIError("communicator rank list contains duplicates")
        for r in world_ranks:
            if not (0 <= r < world.num_ranks):
                raise MPIError(f"world rank {r} out of range")
        self.world = world
        self.world_ranks = list(world_ranks)
        self._local_of_world = {w: l for l, w in enumerate(self.world_ranks)}
        self.context_id = next(world._context_counter)

    # -- shape ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def local_rank_of(self, world_rank: int) -> int:
        """Local rank of a world rank (raises if not a member)."""
        try:
            return self._local_of_world[world_rank]
        except KeyError:
            raise MPIError(
                f"world rank {world_rank} not in communicator {self.context_id}"
            ) from None

    def world_rank_of(self, local_rank: int) -> int:
        """World rank of a local rank."""
        if not (0 <= local_rank < self.size):
            raise MPIError(f"local rank {local_rank} out of range (size={self.size})")
        return self.world_ranks[local_rank]

    def create_comm(self, local_ranks: Sequence[int]) -> "Communicator":
        """Sub-communicator from local ranks of this one (``MPI_Comm_create``)."""
        return Communicator(self.world, [self.world_rank_of(r) for r in local_ranks])

    # -- point to point -------------------------------------------------------------
    def isend(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
        src: Optional[int] = None,
    ) -> SendRequest:
        """Post a non-blocking send from ``src`` (local) to ``dest`` (local).

        ``src`` identifies the sending rank; rank programs normally call the
        bound helpers on :class:`~repro.mpi.context.RankContext` which fill
        it in automatically.
        """
        if src is None:
            raise MPIError("isend needs the sending rank (use RankContext.isend)")
        if tag < 0:
            raise MPIError(f"tags must be non-negative, got {tag}")
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        if payload is not None and isinstance(payload, np.ndarray):
            # MPI owns the buffer for the duration of the send; emulate by
            # copying so that sender-side mutation cannot race the transfer.
            # Modeled mode passes payload=None with an explicit nbytes and
            # must never pay for a copy (or the per-call numpy import this
            # method used to do).
            payload = payload.copy()
        # Rank translation inlined (two method calls per send add up at
        # ~10^5 sends per run).
        ranks = self.world_ranks
        size = len(ranks)
        if not (0 <= src < size):
            raise MPIError(f"local rank {src} out of range (size={size})")
        if not (0 <= dest < size):
            raise MPIError(f"local rank {dest} out of range (size={size})")
        return self.world._post_send(
            self.context_id, ranks[src], ranks[dest], tag, payload, int(nbytes)
        )

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, dst: Optional[int] = None
    ) -> RecvRequest:
        """Post a non-blocking receive at ``dst`` (local rank)."""
        if dst is None:
            raise MPIError("irecv needs the receiving rank (use RankContext.irecv)")
        ranks = self.world_ranks
        size = len(ranks)
        if source == ANY_SOURCE:
            src_world = ANY_SOURCE
        elif 0 <= source < size:
            src_world = ranks[source]
        else:
            raise MPIError(f"local rank {source} out of range (size={size})")
        if not (0 <= dst < size):
            raise MPIError(f"local rank {dst} out of range (size={size})")
        request = self.world._post_recv(self.context_id, ranks[dst], src_world, tag)
        request.comm = self
        return request
