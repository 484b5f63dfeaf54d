"""SimMPI — a simulated message-passing interface.

The paper's implementation is ANSI C + MPI on the Paragon.  This package
re-creates the MPI programming model *inside* the discrete-event simulation:
ranks are generator processes, sends/receives are events, and all timing
(startup, bandwidth, endpoint contention, waiting-for-sender idle time) comes
from the :mod:`repro.machine` model.

The subset implemented is the subset the paper's code needs, with matching
MPI semantics:

* non-blocking point-to-point with tag matching, ``ANY_SOURCE``/``ANY_TAG``
  wildcards and FIFO (non-overtaking) order per (source, tag);
* request objects with ``wait`` (yield the request) and ``wait_all``;
* communicators over arbitrary rank subsets (``World.create_comm``), with
  isolated matching contexts;
* a virtual high-resolution timer (``Wtime``) — the paper's ``MPI_Wtime``.

Example
-------
::

    sim = Simulator()
    machine = afrl_paragon()
    world = World(sim, machine, num_ranks=4)

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.comm.isend(payload, nbytes=1024, dest=1, tag=7)
        elif ctx.rank == 1:
            msg = yield ctx.comm.irecv(source=0, tag=7)
            ...

    world.spawn_all(program)
    sim.run()
"""

from repro.mpi.datatypes import Message, ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request, SendRequest, RecvRequest, wait_all, wait_any
from repro.mpi.communicator import World, Communicator
from repro.mpi.context import RankContext

__all__ = [
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "SendRequest",
    "RecvRequest",
    "wait_all",
    "wait_any",
    "World",
    "Communicator",
    "RankContext",
]
