"""The simulator core: a virtual clock and an event queue.

The engine is deliberately minimal — a binary heap keyed on
``(time, priority, sequence)`` — because the parallel-machine simulation
above it generates hundreds of thousands of events per run and queue
throughput dominates.  Determinism is guaranteed by the monotonically
increasing sequence number: two events at the same time and priority are
processed in creation order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Optional

from repro.des.event import Event, Timeout, AllOf, AnyOf, PROCESSED, TRIGGERED
from repro.des.process import Process
from repro.errors import DeadlockError, SimulationError

#: Upper bound on recycled Timeout objects kept alive between uses.
_POOL_MAX = 1024


class Simulator:
    """Discrete-event simulator with a floating-point virtual clock (seconds)."""

    #: Backend identity; subclasses in :mod:`repro.des.backends` override.
    backend = "python"

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._processes: list[Process] = []
        self._timeout_pool: list[Timeout] = []
        #: Events popped and processed so far (perf instrumentation; the
        #: counter is maintained with one local increment per event, which
        #: is not measurable against the cost of processing the event).
        self.events_processed: int = 0
        #: Peak event-heap depth observed at :meth:`_schedule` time (one
        #: ``len`` + compare per scheduled event, same always-on budget as
        #: ``events_processed``).  Fast paths that push onto the heap
        #: directly — eager-send completions, message deliveries, lowered
        #: slot records — are not sampled, so this is a lower bound on the
        #: true peak; it feeds the ``des_heap_depth_peak`` metrics gauge.
        self.heap_peak: int = 0

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def pooled_timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """A :class:`Timeout` from the recycle pool (pure-delay fast path).

        Pooled timeouts are returned to the pool by the event loop right
        after their callbacks run, so the caller must yield them immediately
        and never keep a reference past the wait (the machine-cost helpers
        on :class:`~repro.mpi.context.RankContext` are the intended users).
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.name = name
            timeout.delay = delay
            timeout._ok = True
            timeout._value = value
            timeout._state = TRIGGERED
            timeout.defused = False
            self._schedule(timeout, delay=delay)
            return timeout
        timeout = Timeout(self, delay, value=value, name=name)
        timeout._pooled = True
        return timeout

    def all_of(self, events) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn ``generator`` as a process; returns the (joinable) process."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))
        if len(self._queue) > self.heap_peak:
            self.heap_peak = len(self._queue)

    # -- running -----------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _priority, _seq, event = heapq.heappop(self._queue)
        self._now = time
        callbacks, event.callbacks = event.callbacks, []
        event._state = PROCESSED
        for callback in callbacks:
            callback(event)
        self.events_processed += 1
        if event._ok is False and not event.defused:
            raise event._value
        if event._pooled and len(self._timeout_pool) < _POOL_MAX:
            self._timeout_pool.append(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` seconds, or an event fires.

        Returns the value of ``until`` when it is an event.  Raises
        :class:`~repro.errors.DeadlockError` if the queue drains while
        processes are still alive and no ``until`` time was given.

        The event loop is the simulation's hottest code: paper-scale runs
        process ~10^6 events, so :meth:`_run_fast` is a tight loop with
        everything bound locally.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(f"run(until={stop_time}) is in the past")

        # The event loop allocates many small reference cycles (events <->
        # callbacks <-> processes); the cyclic collector's periodic scans
        # over the live heap cost ~10% of a paper-scale run.  Refcounting
        # still frees the acyclic majority immediately; cycles are swept
        # when collection resumes after the loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            finished = self._run_fast(stop_event, stop_time)
        finally:
            if gc_was_enabled:
                gc.enable()
        if not finished:
            # Stopped at the stop_time horizon with events still queued.
            return None

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            self._raise_deadlock("the awaited event never fired")
        if stop_time is None:
            alive = [p for p in self._processes if p.is_alive]
            if alive:
                self._raise_deadlock(f"{len(alive)} process(es) still blocked")
        return None

    def _run_fast(self, stop_event: Optional[Event], stop_time: Optional[float]) -> bool:
        """The event loop.  Returns False on a stop_time horizon stop."""
        queue = self._queue
        pool = self._timeout_pool
        pop = heapq.heappop
        processed = 0
        no_stops = stop_event is None and stop_time is None
        try:
            while queue:
                if not no_stops:
                    if stop_event is not None and stop_event._state == PROCESSED:
                        return True
                    if stop_time is not None and queue[0][0] > stop_time:
                        self._now = stop_time
                        return False
                time, _priority, _seq, event = pop(queue)
                self._now = time
                callbacks = event.callbacks
                event.callbacks = []
                event._state = PROCESSED
                for callback in callbacks:
                    callback(event)
                processed += 1
                if event._ok is False and not event.defused:
                    raise event._value
                if event._pooled and len(pool) < _POOL_MAX:
                    pool.append(event)
        finally:
            self.events_processed += processed
        return True

    def _raise_deadlock(self, reason: str) -> None:
        waiting = []
        for proc in self._processes:
            if proc.is_alive:
                target = proc.waiting_on
                waiting.append(f"{proc.name} waiting on {getattr(target, 'name', target)!r}")
        raise DeadlockError(
            f"simulation deadlocked at t={self._now:.6f}: {reason}", waiting=waiting
        )
