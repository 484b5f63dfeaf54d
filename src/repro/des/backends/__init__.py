"""Runtime-selectable simulator cores.

Two backends run the same simulation with the same bit-exact results:

``lowered`` (the default)
    Plan-lowered hot path: transfers become pooled slot records driven by
    :class:`EnginePlan` tables through one event loop (every contention
    mode, traced or not, run to the end, to a stop or one step at a time),
    the matcher packs its keys into integers, and an attached
    :class:`~repro.obs.TraceSink` is fed from the slot records themselves.
    ``backend=None`` resolves here on every entry point (pipeline, sweeps,
    tuner, CLI).
``python``
    The reference engine (:class:`~repro.des.engine.Simulator` plus
    :class:`~repro.machine.network.Network`): a plain checker the
    bit-identity tests compare the lowered core against.  It records no
    network trace; a traced run on it is a ``ConfigurationError``.

A native C core was measured at 1.25x the lowered core end to end on
Table 7 case 1 and removed (see ``docs/performance.md``).  Result-cache
keys include the resolved backend identity and :data:`ENGINE_SCHEMA` so
results from different cores are never conflated.
"""

from __future__ import annotations

import time as _time

from repro.des.engine import Simulator
from repro.des.backends.lowered import LoweredNetwork, LoweredSimulator
from repro.des.backends.plan import EnginePlan, TAG_BITS, TAG_LIMIT
from repro.errors import ConfigurationError

#: Engine implementation schema: bump when any backend's scheduling
#: semantics change, to invalidate cached results keyed on it.  2: the
#: lowered core became the default and the C core was removed.
ENGINE_SCHEMA = 2

#: Backend names accepted by ``resolve_backend`` (besides None).
BACKEND_NAMES = ("python", "lowered")

#: What ``backend=None`` runs.
DEFAULT_BACKEND = "lowered"


def resolve_backend(name: str | None) -> str:
    """Map a requested backend name onto a concrete one.

    ``None`` selects :data:`DEFAULT_BACKEND`, the lowered core; ``python``
    asks for the reference checker.  Anything else is an error.
    """
    if name is None:
        return DEFAULT_BACKEND
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown simulator backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


class EngineBackend:
    """The reference (pure Python) backend; base class for the others."""

    name = "python"

    def create_simulator(self) -> Simulator:
        return Simulator()

    def build_plan(self, mesh, cost, contention) -> EnginePlan | None:
        """Per-run lowered tables; the reference backend needs none."""
        return None

    def create_network(self, sim, mesh, cost, contention, plan):
        from repro.machine.network import Network

        return Network(sim, mesh, cost, contention=contention)


class LoweredBackend(EngineBackend):
    name = "lowered"

    def create_simulator(self) -> Simulator:
        return LoweredSimulator()

    def build_plan(self, mesh, cost, contention) -> EnginePlan:
        return EnginePlan.build(mesh, cost, contention, backend=self.name)

    def create_network(self, sim, mesh, cost, contention, plan):
        return LoweredNetwork(sim, mesh, cost, contention=contention, plan=plan)


_BACKENDS = {
    "python": EngineBackend,
    "lowered": LoweredBackend,
}


def get_backend(name: str | None) -> EngineBackend:
    """Resolve ``name`` and instantiate its backend."""
    return _BACKENDS[resolve_backend(name)]()


def timed_plan(backend: EngineBackend, mesh, cost, contention):
    """Build the backend's plan, stamping wall-clock build time onto it."""
    t0 = _time.perf_counter()
    plan = backend.build_plan(mesh, cost, contention)
    if plan is not None:
        plan.build_seconds = _time.perf_counter() - t0
    return plan


__all__ = [
    "ENGINE_SCHEMA",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "EnginePlan",
    "EngineBackend",
    "LoweredBackend",
    "LoweredSimulator",
    "LoweredNetwork",
    "TAG_BITS",
    "TAG_LIMIT",
    "resolve_backend",
    "get_backend",
    "timed_plan",
]
