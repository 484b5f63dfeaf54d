"""The lowered-plan Python backend.

Same simulation, flattened hot path.  The reference engine drives every
network transfer through generic machinery: a pooled deferral timeout, one
:class:`~repro.des.resource.Resource` request per held port (an Event
allocation, a grant Event, and two closures each), a hold timeout, and a
completion Event — five heap entries under ENDPOINT contention and roughly
a dozen object allocations per message.  The lowered backend replaces all of that with **one pooled slot
record** per in-flight transfer that the event loop advances through an
integer state machine, reading precomputed :class:`EnginePlan` tables.
The loop in :meth:`LoweredSimulator._run_slots` is the only place a record
changes stage; ``run()``, ``run(until=...)`` and ``step()`` all drive it.

Schedule parity
---------------
Determinism in this engine is the ``(time, priority, sequence)`` heap key,
so bit-identity across backends demands *sequence-for-sequence* parity:
every ``_schedule`` call the reference path makes has exactly one
counterpart here, in the same order, at the same time and priority —

====================================  =====================================
reference event                       lowered slot state
====================================  =====================================
``pooled_timeout(0)`` deferral        record pushed at ``now`` (ACQ)
grant Event of each port, in order    record re-pushed at ``now`` (ACQ)
hold or delay ``pooled_timeout``     record pushed at ``now+hold`` (RELEASE)
``done.succeed()``                    record re-pushed at ``now`` (DELIVER)
====================================  =====================================

A record holds its ports as a tuple in the reference acquire order (by
resource name): the ejection and injection ports under ENDPOINT
contention, followed by every link of the XY route under LINKS, and none
for an on-node copy or under NONE contention, whose hold is the analytic
delay.  Each ACQ pop requests the next port; the pop after the last grant
starts the hold.
A transfer that finds a port busy enqueues without consuming a sequence
number, and is re-pushed by the releasing transfer — exactly when the
reference ``Resource`` would have scheduled the grant.  At DELIVER the
record calls the world's delivery function, the same one the reference
done event's callback calls.  Timestamps, event order, and every counter
therefore match the reference bit for bit in every contention mode; the
golden and hypothesis backend tests enforce this.

Tracing: with a :class:`~repro.obs.TraceSink` attached (``attach_trace``)
every record stamps each port's request time and its hold start (a port's
grant is the next port's request), and the release reports each port's
hold interval, bytes and contention wait — exactly what the reference
path's resources would have seen.  Traced and untraced runs take the same
loop and the same schedule.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.des.engine import Simulator
from repro.des.event import PROCESSED
from repro.errors import ConfigurationError, MachineError, SimulationError
from repro.machine.network import ContentionMode, Network
from repro.des.backends.plan import EnginePlan

#: Slot-record states; the value is the *next* action the loop performs.
_ACQ = 0  # request the next port, or start the hold once all are held
_RELEASE = 1  # release ports, wake waiters, then deliver
_DELIVER = 2  # hand the message to the receiver

#: Recycled slot records kept per network (matches the engine's timeout pool
#: bound; in-flight transfers beyond this simply allocate).
_RECORD_POOL_MAX = 1024


class _Transfer:
    """One in-flight transfer: a pooled array-of-struct slot record.

    Instances are heap payloads; the loop recognizes them by exact class
    and advances ``stage`` instead of running Event callbacks.
    """

    __slots__ = ("stage", "ports", "left", "hold", "wait_since", "pending",
                 "recv", "nbytes", "stamps")

    def __init__(self):
        self.stage = _ACQ
        #: Ports to hold, in acquire order (none on the analytic-delay
        #: paths), how many are still to request, and the hold time.
        self.ports = ()
        self.left = 0
        self.hold = 0.0
        self.wait_since = 0.0
        #: The pending send and the receive request to deliver at _DELIVER.
        self.pending = None
        self.recv = None
        #: Trace stamps (kept only when a sink is attached): message size,
        #: then each port's request time followed by the hold start.
        self.nbytes = 0
        self.stamps = []


class LoweredSimulator(Simulator):
    """Reference :class:`Simulator` with the transfer state machine inlined."""

    backend = "lowered"

    def __init__(self):
        super().__init__()
        #: The lowered network bound to this engine (at most one).  Without
        #: one no slot record is ever scheduled and the reference loop runs.
        self._slot_network = None

    def step(self) -> None:
        net = self._slot_network
        if net is None:
            super().step()
            return
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._run_slots(net, None, None, True)

    def _run_fast(self, stop_event, stop_time) -> bool:
        net = self._slot_network
        if net is None:
            return super()._run_fast(stop_event, stop_time)
        return self._run_slots(net, stop_event, stop_time, False)

    def _run_slots(self, net: "LoweredNetwork", stop_event, stop_time, once) -> bool:
        """Drain the queue with ``net``'s transfer state machine inlined.

        Record events are ~2/3 of a modeled run, so this loop keeps their
        whole lifecycle in local variables — port tables, record pool, the
        heap, and crucially the sequence counter.  ``self._seq`` is synced
        to the local counter before control leaves the loop (Event
        callbacks, delivery) and reloaded after, so externally-scheduled
        events still get exactly the sequence numbers the reference engine
        would hand out.  The stop checks (``until``, and ``once`` for
        ``step()``) sit behind one hoisted flag, as in the reference loop.
        Returns False on a ``stop_time`` horizon stop.
        """
        queue = self._queue
        pool = self._timeout_pool
        transfer_cls = _Transfer
        pop = heappop
        push = heappush
        in_use = net._port_in_use
        waiter_tbl = net._port_waiters
        wait_time = net._port_wait_time
        record_pool = net._record_pool
        deliver = net._deliver
        obs = net.obs
        names = net._port_names
        stopping = stop_event is not None or stop_time is not None or once
        finished = True
        processed = 0
        seq = self._seq
        try:
            while queue:
                if stopping:
                    if stop_event is not None and stop_event._state == PROCESSED:
                        break
                    if stop_time is not None and queue[0][0] > stop_time:
                        self._now = stop_time
                        finished = False
                        break
                    if once and processed:
                        break
                time, _priority, _seq_, event = pop(queue)
                self._now = time
                if event.__class__ is transfer_cls:
                    processed += 1
                    stage = event.stage
                    if stage == _ACQ:
                        # Request the next port; the pop after the last
                        # grant starts the hold (header + occupancy, or the
                        # analytic delay of a record without ports).
                        if obs is not None:
                            event.stamps.append(time)
                        left = event.left
                        if left:
                            port = event.ports[-left]
                            event.left = left - 1
                            if in_use[port]:
                                event.wait_since = time
                                waiters = waiter_tbl[port]
                                if waiters is None:
                                    waiters = waiter_tbl[port] = []
                                waiters.append(event)
                            else:
                                in_use[port] = 1
                                seq += 1
                                push(queue, (time, 1, seq, event))
                        else:
                            event.stage = _RELEASE
                            seq += 1
                            push(queue, (time + event.hold, 1, seq, event))
                    elif stage == _RELEASE:
                        # Release in reverse acquire order, as the reference
                        # does; each release hands the port straight to the
                        # oldest waiter.
                        ports = event.ports
                        for port in reversed(ports):
                            waiters = waiter_tbl[port]
                            if waiters:
                                waiter = waiters.pop(0)
                                wait_time[port] += time - waiter.wait_since
                                seq += 1
                                push(queue, (time, 1, seq, waiter))
                            else:
                                in_use[port] = 0
                        if obs is not None:
                            # In acquire order; a port's wait ends when the
                            # next port is requested (or the hold starts).
                            stamps = event.stamps
                            start, nbytes = stamps[-1], event.nbytes
                            for i, port in enumerate(ports):
                                obs.record_link_hold(
                                    names[port], start, time, nbytes,
                                    stamps[i + 1] - stamps[i],
                                )
                            stamps.clear()
                        event.stage = _DELIVER
                        seq += 1
                        push(queue, (time, 1, seq, event))
                    else:  # _DELIVER
                        pending, recv = event.pending, event.recv
                        event.pending = event.recv = None
                        if len(record_pool) < _RECORD_POOL_MAX:
                            record_pool.append(event)
                        self._seq = seq
                        deliver(pending, recv)
                        seq = self._seq
                    continue
                # Generic event: identical to the reference loop, with the
                # sequence counter handed back for the callback window.
                self._seq = seq
                callbacks = event.callbacks
                event.callbacks = []
                event._state = PROCESSED
                for callback in callbacks:
                    callback(event)
                seq = self._seq
                processed += 1
                if event._ok is False and not event.defused:
                    raise event._value
                if event._pooled and len(pool) < 1024:
                    pool.append(event)
            self._seq = seq
        except BaseException:
            # self._seq was synced before any call that can raise; the
            # local counter may be stale here, so do not write it back.
            self.events_processed += processed
            raise
        self.events_processed += processed
        return finished


class LoweredNetwork(Network):
    """Plan-driven network scheduler, for every contention mode.

    Every transfer runs as a slot record off :class:`EnginePlan` tables,
    traced or not.  It needs a :class:`LoweredSimulator` (the reference
    loop cannot run a slot record), and one engine drives at most one
    lowered network.
    """

    def __init__(self, sim, mesh, cost_model=None, contention=ContentionMode.ENDPOINT,
                 *, plan: EnginePlan):
        super().__init__(sim, mesh, cost_model, contention=contention)
        if sim._slot_network is not None:
            raise ConfigurationError(
                "this simulator already drives a lowered network; build one "
                "World per simulator"
            )
        self.plan = plan
        #: Attached :class:`~repro.obs.TraceSink` (see ``attach_trace``),
        #: and the reference resource names of the ports, which label its
        #: records and order each route's acquires.
        self.obs = None
        self._port_names = plan.port_names()
        nports = plan.num_ports
        #: Port state, struct-of-arrays: held flag, waiter FIFOs, and the
        #: reference Resource's wait accounting.
        self._port_in_use = bytearray(nports)
        self._port_waiters: list = [None] * nports
        self._port_wait_time = [0.0] * nports
        #: (src*N + dst) -> {nbytes -> precomputed total delay/hold}, and
        #: (LINKS) -> the ports a transfer on that edge holds, in order.
        self._edge_memo: dict[int, dict] = {}
        self._edge_ports: dict[int, tuple] = {}
        self._record_pool: list[_Transfer] = []
        #: Fast-path flags precomputed off the contention mode.
        self._contended = self.contention is not ContentionMode.NONE
        self._links = self.contention is ContentionMode.LINKS
        self._n = plan.num_nodes
        sim._slot_network = self

    def attach_trace(self, sink) -> None:
        """Record every port hold into ``sink`` from the slot records."""
        self.obs = sink

    # -- lowered transfer path -------------------------------------------------
    def transfer_matched(self, src: int, dst: int, pending, recv_req) -> None:
        """Start a matched transfer as a slot record.

        Same schedule as the reference ``transfer()`` plus its done-event
        pop: the record's final push stands in for ``done.succeed()`` (one
        sequence number, same time and priority), and its ``_DELIVER``
        stage calls the delivery function the done event's callback would
        have — with no Event, no closure, and no callback-list churn.
        """
        nbytes = pending.message.nbytes
        if nbytes < 0:
            raise MachineError(f"negative message size: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sim = self.sim
        pool = self._record_pool
        record = pool.pop() if pool else _Transfer()
        record.pending = pending
        record.recv = recv_req
        record.nbytes = nbytes

        record.stage = _ACQ
        if src != dst and self._contended:
            # Memo hits inline (the overwhelmingly common case in steady
            # state); misses fill the memos through _route_ports and
            # _edge_hold.  The two endpoint ports cost less to pair than a
            # memo probe, so only LINKS routes are memoized.
            edge = src * self._n + dst
            if self._links:
                ports = self._edge_ports.get(edge)
                if ports is None:
                    ports = self._route_ports(src, dst)
            else:
                ports = (2 * dst, 2 * src + 1)  # ejection, then injection
            record.ports = ports
            record.left = len(ports)
            by_size = self._edge_memo.get(edge)
            hold = by_size.get(nbytes) if by_size is not None else None
            record.hold = (
                hold if hold is not None else self._edge_hold(src, dst, nbytes)
            )
        else:
            # On-node copy, or NONE contention: no ports, so the record
            # has the reference's two-event shape (deferral, then delay).
            record.ports = ()
            record.left = 0
            record.hold = (
                self.plan.per_byte_s * nbytes if src == dst
                else self._edge_delay_none(src, dst, nbytes)
            )
        # The deferral: one sequence number, exactly like the reference's
        # pooled_timeout(0.0) — same-timestamp operations posted earlier
        # keep their place in the schedule.
        sim._seq += 1
        heappush(sim._queue, (sim._now, 1, sim._seq, record))

    def _route_ports(self, src: int, dst: int) -> tuple:
        """The ports a ``src -> dst`` transfer holds under LINKS contention,
        memoized: ejection, injection and the XY route's links, in the
        reference acquire order — sorted by resource name, so the two
        endpoint ports lead and ``link[10->11]`` precedes ``link[9->10]``."""
        link_ports = self.plan.link_ports
        ports = [2 * dst, 2 * src + 1]
        ports.extend(link_ports[l.src, l.dst] for l in self.mesh.route(src, dst))
        ports.sort(key=self._port_names.__getitem__)
        ports = self._edge_ports[src * self._n + dst] = tuple(ports)
        return ports

    def _edge_hold(self, src: int, dst: int, nbytes: int) -> float:
        """Header + occupancy for one (src, dst, nbytes) edge, memoized."""
        edge = src * self.plan.num_nodes + dst
        by_size = self._edge_memo.get(edge)
        if by_size is None:
            by_size = self._edge_memo[edge] = {}
        hold = by_size.get(nbytes)
        if hold is None:
            plan = self.plan
            occupancy = plan.occupancy_memo.get(nbytes)
            if occupancy is None:
                occupancy = plan.occupancy_memo[nbytes] = self.cost.occupancy(nbytes)
            # Same association order as the reference: header + occupancy.
            hold = by_size[nbytes] = float(plan.header_s[src, dst]) + occupancy
        return hold

    def _edge_delay_none(self, src: int, dst: int, nbytes: int) -> float:
        """Analytic point-to-point time (NONE contention), memoized."""
        edge = src * self.plan.num_nodes + dst
        by_size = self._edge_memo.get(edge)
        if by_size is None:
            by_size = self._edge_memo[edge] = {}
        delay = by_size.get(nbytes)
        if delay is None:
            delay = by_size[nbytes] = self.cost.point_to_point(
                nbytes, int(self.plan.hops[src, dst])
            )
        return delay

    # -- diagnostics -----------------------------------------------------------
    def endpoint_wait_time(self, node: int) -> float:
        return self._port_wait_time[2 * node] + self._port_wait_time[2 * node + 1]
