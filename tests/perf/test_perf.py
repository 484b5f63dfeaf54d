"""The repro.perf package: counters, reports, profiling harness."""

from __future__ import annotations

import pytest

from repro import Assignment, STAPParams, STAPPipeline
from repro.des import Simulator
from repro.machine import afrl_paragon
from repro.mpi import World
from repro.perf import PerfReport, profile_run, snapshot_counters

TINY_ASSIGNMENT = Assignment(3, 2, 2, 2, 2, 2, 2, name="perf-test")


def run_tiny(perf: bool):
    return STAPPipeline(
        STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=3, perf=perf
    ).run()


class TestCounters:
    def test_simulator_counts_processed_events(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.process(proc())
        sim.run()
        # Start event + two timeouts at minimum; exact count is an engine
        # detail, monotonicity and non-zero are the contract.
        assert sim.events_processed >= 3

    def test_world_counts_operations_and_probes(self):
        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=2, contention="none")

        def sender(ctx):
            yield ctx.isend(b"x", dest=1, tag=7, nbytes=64)

        def receiver(ctx):
            yield ctx.irecv(source=0, tag=7)

        world.spawn(0, sender)
        world.spawn(1, receiver)
        sim.run()
        assert world.sends_posted == 1
        assert world.recvs_posted == 1
        # Indexed matching: at most one probe per side of the match.
        assert 0 <= world.match_probes <= 2

    def test_snapshot_counters_shape(self):
        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=2)
        snap = snapshot_counters(sim, world)
        assert set(snap) == {
            "events_processed",
            "match_probes",
            "sends_posted",
            "recvs_posted",
            "wildcard_recvs",
            "wildcard_hits",
            "network_messages",
            "network_bytes",
            "backend",
            "plan_build_seconds",
        }
        # Counters start at zero; the meta keys identify the run instead.
        assert all(
            v == 0
            for k, v in snap.items()
            if k not in ("backend", "plan_build_seconds")
        )
        assert snap["backend"] == "python"
        assert snap["plan_build_seconds"] == 0.0
        # Simulator-only snapshot still carries every key.
        assert set(snapshot_counters(sim)) == set(snap)


class TestTransferPath:
    """Perf names the core that actually ran, and each core has one
    transfer path: the default core's slot records in every contention
    mode, the reference network on the python backend."""

    @pytest.mark.parametrize(
        "backend, contention, core",
        [
            (None, "endpoint", "lowered"),
            (None, "none", "lowered"),
            (None, "links", "lowered"),
            ("python", "endpoint", "python"),
        ],
    )
    def test_perf_reports_the_transfer_path_that_ran(
        self, backend, contention, core
    ):
        report = STAPPipeline(
            STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=2, perf=True,
            contention=contention, backend=backend,
        ).run().perf
        assert report.backend == core
        assert report.to_dict()["backend"] == core
        assert "transfer_path" not in report.to_dict()
        assert f"engine backend     {core:>10s}" in report.summary()


class TestPerfReport:
    def test_derived_rates(self):
        report = PerfReport(
            wall_seconds=2.0,
            sim_seconds=10.0,
            num_cpis=4,
            events_processed=1000,
            match_probes=30,
            sends_posted=10,
            recvs_posted=10,
            network_messages=10,
            network_bytes=1 << 20,
        )
        assert report.events_per_second == pytest.approx(500.0)
        assert report.probes_per_message == pytest.approx(1.5)
        assert report.wall_seconds_per_cpi == pytest.approx(0.5)

    def test_zero_denominators_do_not_raise(self):
        report = PerfReport(
            wall_seconds=0.0, sim_seconds=0.0, num_cpis=0, events_processed=0
        )
        assert report.events_per_second == 0.0
        assert report.probes_per_message == 0.0
        assert report.wall_seconds_per_cpi == 0.0

    def test_report_from_one_reading(self):
        """A run's simulator and world count from zero, so one snapshot
        after the run is the report: every snapshot key is a field."""
        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=2, contention="none")

        def sender(ctx):
            yield ctx.isend(b"x", dest=1, tag=7, nbytes=64)

        def receiver(ctx):
            yield ctx.irecv(source=0, tag=7)

        world.spawn(0, sender)
        world.spawn(1, receiver)
        sim.run()
        report = PerfReport(
            wall_seconds=1.0, sim_seconds=sim.now, num_cpis=2, label="x",
            **snapshot_counters(sim, world),
        )
        assert report.events_processed == sim.events_processed > 0
        assert (report.sends_posted, report.recvs_posted) == (1, 1)
        assert report.match_probes == world.match_probes
        assert report.network_messages == world.network.messages_sent == 1
        assert report.network_bytes == world.network.bytes_sent
        assert report.backend == "python"
        assert report.label == "x"

    def test_to_dict_and_summary(self):
        report = PerfReport(
            wall_seconds=1.0,
            sim_seconds=2.0,
            num_cpis=5,
            events_processed=100,
            sends_posted=4,
            recvs_posted=4,
            match_probes=4,
            network_messages=4,
            network_bytes=4096,
            label="unit",
        )
        data = report.to_dict()
        assert data["label"] == "unit"
        assert data["events_per_second"] == pytest.approx(100.0)
        text = report.summary()
        assert "events/s" in text
        assert "probes/op" in text

    def test_counters_dict_has_every_registered_counter(self):
        report = PerfReport(
            wall_seconds=1.0, sim_seconds=2.0, num_cpis=5, events_processed=100
        )
        counters = report.counters_dict()
        assert set(counters) == {
            "events_processed",
            "match_probes",
            "sends_posted",
            "recvs_posted",
            "wildcard_recvs",
            "wildcard_hits",
            "network_messages",
            "network_bytes",
        }
        # Zero-valued counters are present, not omitted: a missing key would
        # make a before/after diff read as "unchanged".
        assert counters["network_messages"] == 0
        assert counters["events_processed"] == 100
        # No derived rates leak into the raw-counter view.
        assert "events_per_second" not in counters

    def test_summary_prints_zero_counters(self):
        report = PerfReport(
            wall_seconds=1.0, sim_seconds=2.0, num_cpis=5, events_processed=100
        )
        text = report.summary()
        assert "p2p ops posted" in text
        assert "network messages" in text

    def test_from_dict_round_trips_to_dict(self):
        report = PerfReport(
            wall_seconds=1.5, sim_seconds=3.0, num_cpis=5,
            events_processed=1234, match_probes=40, sends_posted=20,
            recvs_posted=20, wildcard_recvs=2, wildcard_hits=1,
            network_messages=20, network_bytes=4096, backend="lowered",
            plan_build_seconds=0.01, label="rt",
            extras={"annotation": 7.0},
        )
        data = report.to_dict()
        rebuilt = PerfReport.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.label == "rt"
        assert rebuilt.backend == "lowered"
        assert rebuilt.extras == {"annotation": 7.0}
        # Derived rates are recomputed, never stored stale.
        assert rebuilt.events_per_second == report.events_per_second

    def test_from_dict_keeps_unknown_keys_as_extras(self):
        report = PerfReport(
            wall_seconds=1.0, sim_seconds=2.0, num_cpis=5, events_processed=10
        )
        data = report.to_dict()
        data["case"] = "case3"
        data["nodes"] = 59
        rebuilt = PerfReport.from_dict(data)
        assert rebuilt.extras == {"case": "case3", "nodes": 59}
        assert rebuilt.to_dict() == data


class TestExecMetrics:
    """The executor and cache count into registry counters."""

    def test_inc_is_thread_safe(self):
        """Concurrent inc() calls must not drop increments."""
        import threading

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.enable()
        counter = registry.counter(
            "exec_points_total", labels={"status": "simulated"}
        )
        per_thread, num_threads = 2000, 8

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == per_thread * num_threads

    def test_snapshot_reset_and_delta(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.enable()
        registry.counter("exec_cache_corrupt_total").inc(3)
        registry.counter("exec_progress_errors_total").inc()
        snap = registry.snapshot()
        assert snap.value("exec_cache_corrupt_total") == 3
        assert snap.value("exec_progress_errors_total") == 1
        registry.counter("exec_cache_corrupt_total").inc(2)
        after = registry.snapshot()
        assert (after.value("exec_cache_corrupt_total")
                - snap.value("exec_cache_corrupt_total")) == 2
        # A snapshot is frozen: later increments do not reach it.
        assert snap.value("exec_cache_corrupt_total") == 3
        registry.reset()
        assert registry.snapshot().series() == []


class TestPipelineWiring:
    def test_perf_off_by_default(self):
        result = run_tiny(perf=False)
        assert result.perf is None

    def test_perf_report_attached_and_consistent(self):
        result = run_tiny(perf=True)
        perf = result.perf
        assert perf is not None
        assert perf.wall_seconds > 0.0
        assert perf.sim_seconds == pytest.approx(result.makespan)
        assert perf.num_cpis == 3
        assert perf.events_processed > 0
        assert perf.sends_posted == perf.recvs_posted > 0
        assert perf.network_messages == result.network_messages
        assert perf.network_bytes == result.network_bytes
        # The indexed matcher's target: ~1 probe per posted operation.
        assert perf.probes_per_message < 2.0

    def test_perf_run_results_identical_to_plain_run(self):
        """Instrumentation must not perturb the simulation."""
        plain = run_tiny(perf=False)
        instrumented = run_tiny(perf=True)
        assert repr(plain.makespan) == repr(instrumented.makespan)
        assert plain.network_messages == instrumented.network_messages


class TestProfileRun:
    def test_returns_result_and_stats(self):
        result, stats = profile_run(run_tiny, False, limit=5)
        assert result.perf is None
        assert result.makespan > 0.0
        assert "function calls" in stats

    def test_propagates_exceptions(self):
        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            profile_run(boom)
