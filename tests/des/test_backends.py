"""Backend registry, plan lowering, and cross-backend bit-identity.

The whole value of the lowered simulator core, the default, rests on one
contract: it changes *nothing* about the simulated behaviour — not one
timestamp, not one detection.  These tests pin that contract three ways:

* registry/resolution semantics (None selects the lowered core, removed
  core names are errors, SimPoint validation);
* :class:`~repro.des.backends.plan.EnginePlan` tables equal the reference
  cost model value-for-value (same IEEE-754 operations, no reassociation);
* golden Table 7 case 1 and a hypothesis property over randomized traffic
  patterns, compared repr-exact against ``backend="python"``, the
  reference checker.

Cache-key coverage lives here too: results from different engine cores
must never be conflated by :mod:`repro.exec.cache`.
"""

from __future__ import annotations

import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Assignment,
    CPIStream,
    RadarScenario,
    STAPParams,
    STAPPipeline,
    TargetTruth,
)
from repro.core.assignment import CASE1, CASE3
from repro.des import Simulator
from repro.des.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    ENGINE_SCHEMA,
    EngineBackend,
    EnginePlan,
    LoweredBackend,
    get_backend,
    resolve_backend,
    timed_plan,
)
from repro.errors import ConfigurationError
from repro.exec.cache import CACHE_SCHEMA, cache_key, engine_fingerprint
from repro.exec.point import SimPoint
from repro.machine import afrl_paragon
from repro.machine.network import Network
from repro.mpi import ANY_SOURCE, ANY_TAG, World
from repro.obs import TraceSink

pytestmark = pytest.mark.backends

#: The cores checked against the reference (``python``) backend.
FAST_BACKENDS = [name for name in BACKEND_NAMES if name != "python"]


# -- registry and resolution ---------------------------------------------------------
class TestResolution:
    def test_none_resolves_to_the_lowered_engine(self):
        assert DEFAULT_BACKEND == "lowered"
        assert resolve_backend(None) == "lowered"
        assert get_backend(None).name == "lowered"
        assert STAPPipeline(STAPParams.small(), CASE3).backend == "lowered"

    @pytest.mark.parametrize("name", BACKEND_NAMES[:2])
    def test_concrete_names_resolve_to_themselves(self, name):
        assert resolve_backend(name) == name

    def test_unknown_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            resolve_backend("fortran")

    @pytest.mark.parametrize("name", ["compiled", "auto"])
    def test_removed_core_names_are_configuration_errors(self, name):
        # The C core and its "fastest available" alias are gone; asking
        # for them must fail loudly, not silently run another core.
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            resolve_backend(name)
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            SimPoint(STAPParams.small(), CASE3, backend=name)

    def test_backend_classes_and_simulator_tags(self):
        assert isinstance(get_backend("python"), EngineBackend)
        assert isinstance(get_backend("lowered"), LoweredBackend)
        assert get_backend("python").create_simulator().backend == "python"
        assert get_backend("lowered").create_simulator().backend == "lowered"

    def test_one_lowered_network_per_engine(self):
        engine = get_backend("lowered")
        sim = engine.create_simulator()
        World(sim, afrl_paragon(), num_ranks=2, backend=engine)
        with pytest.raises(ConfigurationError, match="one World per simulator"):
            World(sim, afrl_paragon(), num_ranks=2, backend=engine)

    def test_lowered_backend_on_a_reference_simulator_is_an_error(self):
        # It used to report "lowered" while running the reference network.
        with pytest.raises(ConfigurationError, match="cannot drive a 'python'"):
            World(Simulator(), afrl_paragon(), num_ranks=2, backend="lowered")

    def test_python_backend_on_the_lowered_simulator_is_an_error(self):
        sim = get_backend("lowered").create_simulator()
        with pytest.raises(ConfigurationError, match="cannot drive a 'lowered'"):
            World(sim, afrl_paragon(), num_ranks=2, backend="python")

    def test_simpoint_validates_backend_names(self):
        with pytest.raises(ConfigurationError, match="unknown simulator backend"):
            SimPoint(STAPParams.small(), CASE3, backend="fortran")


# -- EnginePlan tables ---------------------------------------------------------------
class TestEnginePlan:
    @pytest.fixture(scope="class")
    def machine(self):
        return afrl_paragon()

    @pytest.fixture(scope="class")
    def plan(self, machine):
        return EnginePlan.build(machine.mesh, machine.network_cost)

    def test_dimensions_and_port_numbering(self, plan, machine):
        n = machine.mesh.num_nodes
        assert plan.num_nodes == n
        assert plan.num_ports == 2 * n
        assert plan.hops.shape == plan.header_s.shape == (n, n)
        assert EnginePlan.eject_port(7) == 14
        assert EnginePlan.inject_port(7) == 15

    def test_links_plan_numbers_every_mesh_link_after_the_endpoints(self, machine):
        mesh = machine.mesh
        plan = EnginePlan.build(mesh, machine.network_cost, "links")
        links = [(link.src, link.dst) for link in mesh.all_links()]
        n = mesh.num_nodes
        assert plan.num_ports == 2 * n + len(links)
        assert list(plan.link_ports) == links
        assert list(plan.link_ports.values()) == list(range(2 * n, plan.num_ports))
        names = plan.port_names()
        assert names[:2] == ["eject[0]", "inject[0]"]
        a, b = links[0]
        assert names[2 * n] == f"link[{a}->{b}]"

    def test_hops_match_mesh_hop_distance(self, plan, machine):
        mesh = machine.mesh
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                assert plan.hops[src, dst] == mesh.hop_distance(src, dst)

    def test_header_latency_is_the_exact_reference_expression(self, plan, machine):
        # Bit-identity contract: one float64 multiply and one add per
        # element, exactly what Network._begin_transfer computes.
        cost = machine.network_cost
        for src in range(0, machine.mesh.num_nodes, 7):
            for dst in range(0, machine.mesh.num_nodes, 5):
                expected = cost.startup_s + cost.per_hop_s * float(
                    plan.hops[src, dst]
                )
                assert plan.header_s[src, dst] == expected

    def test_reference_backend_builds_no_plan(self, machine):
        backend = get_backend("python")
        assert backend.build_plan(
            machine.mesh, machine.network_cost, "endpoint"
        ) is None
        assert timed_plan(
            backend, machine.mesh, machine.network_cost, "endpoint"
        ) is None

    def test_timed_plan_stamps_build_seconds(self, machine):
        plan = timed_plan(
            get_backend("lowered"), machine.mesh, machine.network_cost, "endpoint"
        )
        assert plan is not None
        assert plan.build_seconds > 0.0


# -- golden Table 7 case 1 bit-identity ----------------------------------------------
def _timing_rows(result) -> list[list]:
    """Every (task, cpi, rank) timing as repr-exact strings, sorted."""
    rows = []
    for task, timings in sorted(result.collector.timings.items()):
        for t in timings:
            rows.append(
                [task, t.cpi_index, t.rank, repr(t.t0), repr(t.t1), repr(t.t2), repr(t.t3)]
            )
    rows.sort()
    return rows


def _nan_eq(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _run_case1(backend):
    return STAPPipeline(
        STAPParams.paper(), CASE1, num_cpis=6, backend=backend
    ).run()


class TestGoldenCase1:
    """Table 7 case 1 (236 nodes): the lowered core reproduces the
    reference run repr-exactly — makespan, wire traffic, and all per-rank
    timings."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _run_case1("python")

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_bit_identical_to_reference(self, reference, backend):
        result = _run_case1(backend)
        assert repr(result.makespan) == repr(reference.makespan)
        assert result.network_messages == reference.network_messages
        assert result.network_bytes == reference.network_bytes
        assert _timing_rows(result) == _timing_rows(reference)
        assert _nan_eq(
            result.metrics.measured_throughput,
            reference.metrics.measured_throughput,
        )
        assert _nan_eq(
            result.metrics.measured_latency,
            reference.metrics.measured_latency,
        )


class TestLinksContention:
    """Paper Table 7 case 3 under LINKS contention: the default core holds
    every route link in its slot records (the reference network's
    transfer path never runs) and reproduces the reference engine."""

    @staticmethod
    def _run(backend):
        return STAPPipeline(
            STAPParams.paper(), CASE3, num_cpis=10, contention="links",
            backend=backend, perf=True,
        ).run()

    def test_default_core_is_bit_identical_to_reference(self, monkeypatch):
        reference = self._run("python")

        def refuse(*_args):
            raise AssertionError("LINKS run left the slot-record path")

        monkeypatch.setattr(Network, "_begin_transfer", refuse)
        result = self._run(None)
        assert result.perf.backend == "lowered"
        assert repr(result.makespan) == repr(reference.makespan)
        assert repr(result.metrics.measured_throughput) == repr(
            reference.metrics.measured_throughput
        )
        assert repr(result.metrics.measured_latency) == repr(
            reference.metrics.measured_latency
        )
        assert repr(result.metrics.tasks) == repr(reference.metrics.tasks)
        assert result.perf.events_processed == reference.perf.events_processed


class TestFunctionalParity:
    """Functional mode: the numerics ride on simulated timestamps, so a
    backend that moved one event would move a detection."""

    @staticmethod
    def _run(backend):
        scenario = RadarScenario(
            clutter_to_noise_db=40.0,
            targets=(
                TargetTruth(
                    range_cell=20, normalized_doppler=0.25, angle_deg=0.0, snr_db=5.0
                ),
            ),
            seed=11,
        )
        params = STAPParams.tiny()
        return STAPPipeline(
            params,
            Assignment(3, 2, 2, 2, 2, 2, 2, name="parity"),
            mode="functional",
            stream=CPIStream(params, scenario),
            num_cpis=4,
            backend=backend,
        ).run()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_detections_and_reports_identical(self, backend):
        reference = self._run("python")
        result = self._run(backend)
        assert repr(result.makespan) == repr(reference.makespan)
        assert [
            (r.cpi_index, repr(r.completed_at), r.detections)
            for r in result.reports
        ] == [
            (r.cpi_index, repr(r.completed_at), r.detections)
            for r in reference.reports
        ]


# -- hypothesis: randomized traffic, identical event sequences -----------------------
@st.composite
def traffic_patterns(draw):
    """A random multiset of (src, dst, tag) messages among a few ranks."""
    num_ranks = draw(st.integers(min_value=2, max_value=5))
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_ranks - 1),  # src
                st.integers(min_value=0, max_value=num_ranks - 1),  # dst
                st.integers(min_value=0, max_value=3),  # tag
            ).filter(lambda m: m[0] != m[1]),
            min_size=1,
            max_size=20,
        )
    )
    return num_ranks, messages


#: Horizon step of the ``until`` drive mode: a few message times, so a run
#: stops many times mid-transfer.
_SLICE_S = 50e-6


def _drive(sim, drive):
    """Run ``sim`` to the end: ``run()``, ``run(until=t)`` in slices, or
    ``step()`` until the queue is empty.  Each slice must stop at its
    horizon and each step must process exactly one event."""
    if drive == "run":
        sim.run()
    elif drive == "until":
        while sim._queue:
            horizon = sim.now + _SLICE_S
            sim.run(until=horizon)
            assert not sim._queue or (
                sim.now == horizon and sim._queue[0][0] > horizon
            )
    else:
        while sim._queue:
            before = sim.events_processed
            sim.step()
            assert sim.events_processed == before + 1


def _run_traffic(backend, num_ranks, messages, contention, use_wildcard,
                 drive="run", traced=False):
    """One random program on one backend; returns its full observable trace.

    Message sizes straddle the eager threshold so both transfer protocols
    (and, under ENDPOINT and LINKS contention, port queueing) are exercised.
    ``traced`` attaches a :class:`TraceSink` to the world (lowered only).
    """
    sends_by_rank = defaultdict(list)
    expected_by_dst = defaultdict(list)
    for seq, (src, dst, tag) in enumerate(messages):
        nbytes = 64 if seq % 2 == 0 else 64 * 1024
        sends_by_rank[src].append((dst, tag, seq, nbytes))
        expected_by_dst[dst].append((src, tag))

    engine = get_backend(backend)
    sim = engine.create_simulator()
    world = World(
        sim, afrl_paragon(), num_ranks=num_ranks,
        contention=contention, backend=engine,
    )
    if traced:
        sink = TraceSink()
        world.network.attach_trace(sink)
        sink.bind(sim)
        world.obs = sink
    deliveries = []

    def program(ctx):
        requests = [
            ctx.isend(seq, dest=dst, tag=tag, nbytes=nbytes)
            for dst, tag, seq, nbytes in sends_by_rank.get(ctx.rank, [])
        ]
        for src, tag in expected_by_dst.get(ctx.rank, []):
            if use_wildcard:
                msg = yield ctx.irecv(source=ANY_SOURCE, tag=ANY_TAG)
            else:
                msg = yield ctx.irecv(source=src, tag=tag)
            deliveries.append(
                (ctx.rank, msg.source, msg.tag, msg.payload, repr(sim.now))
            )
        if requests:
            yield ctx.wait_all(requests)

    world.spawn_all(program)
    _drive(sim, drive)
    waits = [
        repr(world.network.endpoint_wait_time(node))
        for node in range(num_ranks)
    ]
    return {
        "deliveries": deliveries,
        "now": repr(sim.now),
        "events": sim.events_processed,
        "seq": sim._seq,
        "messages": world.network.messages_sent,
        "bytes": world.network.bytes_sent,
        "waits": waits,
    }


class TestBackendEquivalence:
    @given(
        traffic_patterns(),
        st.sampled_from(("none", "endpoint", "links")),
        st.booleans(),
        st.sampled_from(("run", "until", "step")),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_sequences_identical_across_backends(
        self, pattern, contention, use_wildcard, drive, traced
    ):
        """Same random program, every backend, every way of driving the
        loop, traced or not: identical deliveries (order, payload, and
        receipt timestamp), identical final clock, identical event and
        schedule-sequence counts, identical wire totals and waits, all
        against the reference engine's plain ``run()``."""
        num_ranks, messages = pattern
        reference = _run_traffic(
            "python", num_ranks, messages, contention, use_wildcard
        )
        for backend in FAST_BACKENDS:
            got = _run_traffic(
                backend, num_ranks, messages, contention, use_wildcard,
                drive=drive, traced=traced,
            )
            assert got == reference, f"backend {backend} diverged"


# -- cache keys ----------------------------------------------------------------------
class TestCacheIdentity:
    def test_schema_covers_the_engine_dimension(self):
        # 2 introduced engine identity; 3 is the campaign-store era.
        assert CACHE_SCHEMA == 3

    def test_engine_fingerprint_resolves_and_carries_schema(self):
        # 2: the lowered core became the default and the C core went.
        assert ENGINE_SCHEMA == 2
        assert engine_fingerprint(None) == {
            "backend": "lowered",
            "engine_schema": ENGINE_SCHEMA,
        }
        assert engine_fingerprint("python")["backend"] == "python"

    def test_keys_differ_across_backends_for_the_same_point(self):
        params = STAPParams.small()
        keys = {
            cache_key(SimPoint(params, CASE3, backend=backend))
            for backend in BACKEND_NAMES
        }
        assert len(keys) == len(BACKEND_NAMES)

    def test_none_hashes_to_the_default_core(self):
        params = STAPParams.small()
        default_key = cache_key(SimPoint(params, CASE3))
        assert default_key == cache_key(
            SimPoint(params, CASE3, backend=DEFAULT_BACKEND)
        )
