"""Campaign metrics: instruments, snapshot/merge, export, bit-identity."""

from __future__ import annotations

import json

import pytest

from repro import (
    CASE1,
    Assignment,
    CPIStream,
    RadarScenario,
    STAPParams,
    STAPPipeline,
    TargetTruth,
)
from repro.exec import ResultCache, SimPoint, run_points
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    SECONDS_BUCKETS,
    is_host_time,
    metrics_registry,
    series_name,
    to_prometheus,
    write_snapshot,
)

pytestmark = [pytest.mark.obs, pytest.mark.metrics]

TINY = STAPParams.tiny()
TINY_ASSIGNMENT = Assignment(2, 1, 2, 1, 1, 1, 1, name="metrics-test")
#: Labels of the ``des_*`` series for a default (lowered-core) run.
LOWERED = {"backend": "lowered"}


@pytest.fixture(autouse=True)
def _global_registry_off():
    """Tests that enable the process registry must not leak state."""
    yield
    metrics_registry.disable()
    metrics_registry.reset()


def run_tiny(num_cpis=3):
    return STAPPipeline(TINY, TINY_ASSIGNMENT, num_cpis=num_cpis).run()


class TestInstruments:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        gauge = reg.gauge("g")
        hist = reg.histogram("h")
        counter.inc(5)
        gauge.set(3.0)
        hist.observe(0.1)
        assert counter.value == 0.0
        assert gauge.value == 0.0
        assert hist.count == 0

    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        reg.enable()
        counter = reg.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_high_water(self):
        reg = MetricsRegistry()
        reg.enable()
        gauge = reg.gauge("g")
        gauge.set(5.0)
        gauge.set_max(3.0)
        assert gauge.value == 5.0
        gauge.set_max(9.0)
        assert gauge.value == 9.0

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        reg.enable()
        hist = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            hist.observe(v)
        # Inclusive upper bounds: 1.0 lands in the first bucket.
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.mean == pytest.approx(106.5 / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(2.0, 1.0))

    def test_registration_is_idempotent_but_type_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", labels={"a": "1"}) is not reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0,))
            reg.histogram("h", buckets=(2.0,))

    def test_series_name_is_stable(self):
        assert series_name("m") == "m"
        assert (series_name("m", {"b": "2", "a": "1"})
                == 'm{a="1",b="2"}')


class TestSnapshotAndMerge:
    def _loaded(self):
        reg = MetricsRegistry()
        reg.enable()
        reg.counter("c", labels={"k": "v"}).inc(3)
        reg.gauge("g").set(7.0)
        hist = reg.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        return reg

    def test_snapshot_round_trips_through_json(self):
        snap = self._loaded().snapshot()
        rebuilt = MetricsSnapshot.from_dict(json.loads(snap.to_json()))
        assert rebuilt == snap
        assert rebuilt.value("c", {"k": "v"}) == 3
        assert rebuilt.value("g") == 7.0
        assert rebuilt.histogram("h")["counts"] == [1, 1, 0]

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsSnapshot.from_dict({"schema": "other/9"})

    def test_merge_sums_maxes_and_adds_buckets(self):
        reg = self._loaded()
        reg.merge(self._loaded().snapshot())
        snap = reg.snapshot()
        assert snap.value("c", {"k": "v"}) == 6  # counters sum
        assert snap.value("g") == 7.0            # gauges take the max
        hist = snap.histogram("h")
        assert hist["counts"] == [2, 2, 0]       # buckets add
        assert hist["count"] == 4

    def test_merge_into_empty_registry_reproduces_snapshot(self):
        snap = self._loaded().snapshot()
        reg = MetricsRegistry()
        reg.merge(snap)  # disabled registry still aggregates
        assert reg.snapshot() == snap

    def test_merge_rejects_mismatched_bucket_bounds(self):
        reg = MetricsRegistry()
        reg.enable()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        other = MetricsRegistry()
        other.enable()
        other.histogram("h", buckets=(5.0, 6.0)).observe(0.5)
        with pytest.raises(ValueError, match="bounds"):
            reg.merge(other.snapshot())

    def test_collect_context_restores_enabled_state(self):
        reg = MetricsRegistry()
        with reg.collect():
            assert reg.enabled
            reg.counter("c").inc()
        assert not reg.enabled
        assert reg.snapshot().value("c") == 1


class TestExport:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.enable()
        reg.counter("runs_total", "completed runs").inc(2)
        hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = to_prometheus(reg.snapshot())
        assert "# TYPE runs_total counter" in text
        assert "runs_total 2" in text
        # Cumulative buckets plus the implicit +Inf.
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_write_snapshot_formats(self, tmp_path):
        reg = MetricsRegistry()
        reg.enable()
        reg.counter("c").inc()
        snap = reg.snapshot()
        json_path = write_snapshot(snap, tmp_path / "m.json")
        assert MetricsSnapshot.from_dict(
            json.loads(json_path.read_text())
        ) == snap
        prom_path = write_snapshot(snap, tmp_path / "m.prom", format="prom")
        assert "# TYPE c counter" in prom_path.read_text()
        with pytest.raises(ValueError, match="format"):
            write_snapshot(snap, tmp_path / "m.x", format="xml")


class TestPipelineFlush:
    def test_modeled_run_records_expected_series(self):
        metrics_registry.enable(reset=True)
        run_tiny()
        snap = metrics_registry.snapshot()
        assert snap.value("pipeline_runs_total") == 1
        # The default core ran, on its own transfer path.
        assert snap.value("des_events_total", LOWERED) > 0
        assert snap.value("des_heap_depth_peak", LOWERED) > 0
        assert snap.value("des_plan_build_seconds_total", LOWERED) > 0
        assert snap.value("mpi_sends_total") == snap.value("mpi_recvs_total") > 0
        assert snap.value("net_messages_total") > 0
        assert snap.histogram("pipeline_makespan_seconds")["count"] == 1
        for task in ("doppler", "cfar"):
            hist = snap.histogram("stage_comp_seconds", {"task": task})
            assert hist is not None and hist["count"] == 1
            assert hist["bounds"] == list(SECONDS_BUCKETS)
        # The pipeline posts no wildcard receives.
        assert snap.value("mpi_wildcard_recvs_total") == 0

    def test_two_runs_accumulate(self):
        metrics_registry.enable(reset=True)
        run_tiny()
        events_one = metrics_registry.snapshot().value(
            "des_events_total", LOWERED
        )
        assert events_one > 0
        run_tiny()
        snap = metrics_registry.snapshot()
        assert snap.value("pipeline_runs_total") == 2
        assert snap.value("des_events_total", LOWERED) == 2 * events_one

    def test_python_and_links_runs_label_the_core_that_ran(self):
        metrics_registry.enable(reset=True)
        STAPPipeline(TINY, TINY_ASSIGNMENT, num_cpis=3, backend="python").run()
        STAPPipeline(TINY, TINY_ASSIGNMENT, num_cpis=3, contention="links").run()
        snap = metrics_registry.snapshot()
        # The LINKS run took the default core's one transfer path, so
        # the backend label alone says which path carried each run.
        for backend in ("python", "lowered"):
            assert snap.value("des_events_total", {"backend": backend}) > 0
        assert snap.value("des_events_total", LOWERED) + snap.value(
            "des_events_total", {"backend": "python"}
        ) == snap.total("des_events_total")

    def test_metered_case1_is_bit_identical(self):
        """Acceptance: Table 7 case 1 output unchanged by metrics."""
        def run():
            return STAPPipeline(STAPParams.paper(), CASE1, num_cpis=3).run()

        plain = run()
        metrics_registry.enable(reset=True)
        metered = run()
        assert repr(metered.makespan) == repr(plain.makespan)
        assert metered.network_messages == plain.network_messages
        assert metered.network_bytes == plain.network_bytes
        for task in plain.metrics.tasks:
            assert repr(metered.metrics.tasks[task]) == repr(
                plain.metrics.tasks[task]
            )

    def test_metered_functional_detections_identical(self):
        """Acceptance: functional-pipeline detections unchanged by metrics."""
        scenario = RadarScenario(
            clutter_to_noise_db=40.0,
            targets=(
                TargetTruth(range_cell=20, normalized_doppler=0.25,
                            angle_deg=0.0, snr_db=5.0),
            ),
            seed=11,
        )

        def run():
            return STAPPipeline(
                TINY,
                Assignment(3, 2, 2, 2, 2, 2, 2, name="metered-functional"),
                mode="functional",
                stream=CPIStream(TINY, scenario),
                num_cpis=4,
            ).run()

        plain = run()
        metrics_registry.enable(reset=True)
        metered = run()
        assert repr(metered.makespan) == repr(plain.makespan)
        assert [
            (r.cpi_index, repr(r.completed_at), r.detections)
            for r in metered.reports
        ] == [
            (r.cpi_index, repr(r.completed_at), r.detections)
            for r in plain.reports
        ]


class TestWorkerMerge:
    def _points(self):
        return [
            SimPoint(TINY, Assignment(2, 1, 2, 1, 1, 1, 1, name=f"wm{c}"),
                     num_cpis=c)
            for c in (3, 4, 5)
        ]

    def test_parallel_merge_equals_serial_registry(self):
        """Acceptance: jobs>1 merged snapshot == serial run's registry."""
        metrics_registry.enable(reset=True)
        run_points(self._points(), jobs=1, cache=None)
        serial = metrics_registry.snapshot()

        metrics_registry.enable(reset=True)
        outcomes = run_points(self._points(), jobs=2, cache=None)
        parallel = metrics_registry.snapshot()

        # Worker snapshots were shipped and attached per point.
        assert all(o.metrics is not None for o in outcomes if not o.cached)
        # Virtual-time metrics are deterministic, so every counter, gauge
        # and histogram matches exactly.  Host-time series (plan building,
        # kernel and per-point wall seconds) are wall measurements: they
        # must be present on both sides with the same sign, nothing more.
        assert parallel.series() == serial.series()
        host = [s for s in serial.series() if is_host_time(s)]
        assert any(s.startswith("des_plan_build_seconds_total") for s in host)
        for kind in ("counters", "gauges"):
            for series, entry in serial.data[kind].items():
                got = parallel.data[kind][series]
                if is_host_time(series):
                    assert (got["value"] > 0) == (entry["value"] > 0), series
                    assert {**got, "value": 0} == {**entry, "value": 0}
                else:
                    assert got == entry, series
        for series, entry in serial.data["histograms"].items():
            got = parallel.data["histograms"][series]
            if is_host_time(series):
                assert got["counts"] != [] and got["count"] == entry["count"]
            else:
                assert got == entry, series

    def test_serial_outcomes_carry_no_snapshot(self):
        metrics_registry.enable(reset=True)
        outcomes = run_points(self._points(), jobs=1, cache=None)
        assert all(o.metrics is None for o in outcomes)

    def test_cached_points_count_in_parent(self):
        metrics_registry.enable(reset=True)
        cache = ResultCache()
        run_points(self._points(), jobs=1, cache=cache)
        run_points(self._points(), jobs=2, cache=cache)
        snap = metrics_registry.snapshot()
        assert snap.value("exec_points_total", {"status": "simulated"}) == 3
        assert snap.value("exec_points_total", {"status": "cached"}) == 3
        assert snap.value("exec_cache_hits_total", {"layer": "memory"}) == 3

    def test_metrics_off_ships_nothing(self):
        outcomes = run_points(self._points(), jobs=2, cache=None)
        assert all(o.metrics is None for o in outcomes)
        assert metrics_registry.snapshot().series() == []
