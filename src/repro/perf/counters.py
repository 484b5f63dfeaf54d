"""Simulation-speed counters and the report that aggregates them."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def snapshot_counters(sim, world=None) -> dict:
    """Raw counter values of a simulator (and optionally its MPI world).

    The simulator and world are fresh per run and count from zero, so one
    reading after the run is what the run cost; its keys are
    :class:`PerfReport` fields.  Besides counters, the snapshot records
    which simulator backend ran (which names its transfer path: ``lowered``
    slot records, or the ``python`` reference network) and how long its
    :class:`~repro.des.backends.plan.EnginePlan` took to build (zero for
    the reference engine, which lowers nothing).
    """
    counters = dict.fromkeys(PerfReport.counter_names(), 0)
    counters.update(
        events_processed=sim.events_processed,
        backend=getattr(sim, "backend", "python"),
        plan_build_seconds=0.0,
    )
    if world is not None:
        plan = getattr(world, "engine_plan", None)
        counters.update(
            match_probes=world.match_probes,
            sends_posted=world.sends_posted,
            recvs_posted=world.recvs_posted,
            wildcard_recvs=world.wildcard_recvs,
            wildcard_hits=world.wildcard_hits,
            network_messages=world.network.messages_sent,
            network_bytes=world.network.bytes_sent,
            backend=getattr(world, "backend", counters["backend"]),
            plan_build_seconds=plan.build_seconds if plan is not None else 0.0,
        )
    return counters


#: Field metadata of the raw registered counters of a :class:`PerfReport`.
_COUNTER = {"counter": True}


@dataclass
class PerfReport:
    """Wall-clock cost of one simulation run.

    ``wall_seconds`` is host time; ``sim_seconds`` is the virtual makespan.
    The derived properties are the quantities tracked across PRs:
    events/second (engine throughput), probes/message (matching
    efficiency — the indexed queues aim at ~1), and wall-seconds per
    simulated CPI (the end-to-end figure of merit).
    """

    wall_seconds: float
    sim_seconds: float
    num_cpis: int
    events_processed: int = field(metadata=_COUNTER)
    match_probes: int = field(default=0, metadata=_COUNTER)
    sends_posted: int = field(default=0, metadata=_COUNTER)
    recvs_posted: int = field(default=0, metadata=_COUNTER)
    wildcard_recvs: int = field(default=0, metadata=_COUNTER)
    wildcard_hits: int = field(default=0, metadata=_COUNTER)
    network_messages: int = field(default=0, metadata=_COUNTER)
    network_bytes: int = field(default=0, metadata=_COUNTER)
    #: Which simulator core ran, and so which transfer implementation
    #: carried the messages: ``lowered`` (slot records, every contention
    #: mode) or ``python`` (the reference network).
    backend: str = ""
    #: Wall seconds spent building the backend's :class:`EnginePlan`
    #: tables before the run (zero for the reference engine).
    plan_build_seconds: float = 0.0
    #: Optional label (case name, mode) carried into serialized output.
    label: str = ""
    extras: dict = field(default_factory=dict)

    # -- derived ----------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Engine throughput in events per wall-clock second."""
        return self.events_processed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def probes_per_message(self) -> float:
        """Queue entries examined per point-to-point operation posted."""
        ops = self.sends_posted + self.recvs_posted
        return self.match_probes / ops if ops else 0.0

    @property
    def wall_seconds_per_cpi(self) -> float:
        """Host seconds spent per simulated CPI."""
        return self.wall_seconds / self.num_cpis if self.num_cpis else 0.0

    # -- construction -----------------------------------------------------------
    #: ``to_dict`` keys computed from other fields; ``from_dict`` drops
    #: them rather than storing stale copies.
    _DERIVED_KEYS = ("events_per_second", "probes_per_message", "wall_seconds_per_cpi")

    @classmethod
    def from_dict(cls, doc: dict) -> "PerfReport":
        """Rebuild a report from :meth:`to_dict` output (round-trip safe).

        Derived rates are recomputed, not read back; keys that are not
        report fields land in ``extras`` so foreign annotations survive
        the round trip (``from_dict(r.to_dict()).to_dict() == r.to_dict()``
        holds whenever extras don't shadow field names).
        """
        doc = dict(doc)
        for key in cls._DERIVED_KEYS:
            doc.pop(key, None)
        known = {f.name for f in fields(cls)} - {"extras"}
        kwargs = {key: doc.pop(key) for key in list(doc) if key in known}
        return cls(extras=doc, **kwargs)

    # -- output -----------------------------------------------------------------
    def counters_dict(self) -> dict:
        """Raw registered counters only (no derived rates, no label).

        Every registered counter is present even when zero, so programmatic
        before/after diffs see the full key set — a counter that silently
        vanishes from the output reads as "unchanged" when it actually
        dropped to zero.
        """
        return {name: getattr(self, name) for name in self.counter_names()}

    @classmethod
    def counter_names(cls) -> tuple:
        """Names of the raw registered counters, in field order."""
        return tuple(f.name for f in fields(cls) if f.metadata.get("counter"))

    def to_dict(self) -> dict:
        """JSON-serializable view (raw counters plus derived rates)."""
        doc = {"label": self.label}
        doc.update((f.name, getattr(self, f.name)) for f in fields(self)
                   if f.name not in ("label", "extras"))
        doc.update((key, getattr(self, key)) for key in self._DERIVED_KEYS)
        doc.update(self.extras)
        return doc

    def summary(self) -> str:
        """Human-readable block for CLI output."""
        lines = [
            f"--- simulation perf {('(' + self.label + ')') if self.label else ''}".rstrip(),
            f"wall time          {self.wall_seconds:10.3f} s"
            f"   ({self.wall_seconds_per_cpi * 1e3:8.1f} ms / simulated CPI)",
            f"virtual makespan   {self.sim_seconds:10.3f} s",
            f"events processed   {self.events_processed:10d}"
            f"   ({self.events_per_second:10.0f} events/s)",
        ]
        if self.backend:
            lines.append(
                f"engine backend     {self.backend:>10s}"
                f"   ({self.plan_build_seconds * 1e3:10.1f} ms plan build)"
            )
        # Zero-valued counters are printed, not omitted: a silent omission
        # makes a before/after diff read as "unchanged" when the counter
        # actually collapsed to zero.
        ops = self.sends_posted + self.recvs_posted
        lines.append(
            f"p2p ops posted     {ops:10d}"
            f"   ({self.probes_per_message:10.2f} match probes/op)"
        )
        lines.append(
            f"network messages   {self.network_messages:10d}"
            f"   ({self.network_bytes / 2**20:10.1f} MiB on the wire)"
        )
        return "\n".join(lines)
