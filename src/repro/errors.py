"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError`` etc. are still raised for misuse of the API itself).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SimulationError(ReproError):
    """Raised for failures inside the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while processes are still waiting.

    This is the classic symptom of a communication deadlock: for example a
    rank blocked in ``recv`` for a message that no rank will ever send.
    """

    def __init__(self, message: str, waiting: list[str] | None = None):
        super().__init__(message)
        #: Human-readable descriptions of the processes that were still
        #: blocked when the simulation ran out of events.
        self.waiting = list(waiting or [])


class InterruptError(SimulationError):
    """Raised inside a process that was interrupted by another process."""

    def __init__(self, cause=None):
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause


class MPIError(ReproError):
    """Raised for violations of the simulated-MPI API contract."""


class MachineError(ReproError):
    """Raised for invalid machine-model configurations (topology, rates)."""


class ConfigurationError(ReproError):
    """Raised for invalid STAP / pipeline parameterizations."""


class ExecutionError(ReproError):
    """Raised when a batch experiment point fails inside the executor.

    The executor captures per-point failures so one bad point does not kill
    a whole sweep; this error is raised when a caller asks for a failed
    point's result, and carries the worker-side traceback text.
    """


class AssignmentError(ConfigurationError):
    """Raised when a processor assignment is infeasible for the machine."""


class PipelineError(ReproError):
    """Raised when the process-parallel runtime (:mod:`repro.rt`) fails.

    Carries the pipeline stage and replica index of the failing worker when
    the failure is attributable to one (a crash, an unhandled exception, or
    a protocol violation); both are ``None`` for orchestration-level
    failures such as an unusable start method.
    """

    def __init__(self, message: str, stage: str | None = None,
                 replica: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.replica = replica
