"""The campaign subsystem: store, manifest, two-state queue, resume."""

import json
import pickle

import pytest

from repro import Assignment, STAPParams
from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    CACHE_SCHEMA,
    MANIFEST_SCHEMA,
    Campaign,
    CampaignStore,
    SimPoint,
    cache_key,
    load_campaign,
    point_from_spec,
    point_spec,
    run_points,
)
from repro.exec.campaign import MANIFEST_NAME, RESULTS_DIR
from tests.exec.counting import counting

pytestmark = pytest.mark.exec

TINY_COUNTS = (2, 1, 2, 1, 1, 1, 1)


def tiny_point(name="t", num_cpis=5, **overrides):
    return SimPoint(
        STAPParams.tiny(),
        Assignment(*TINY_COUNTS, name=name),
        num_cpis=num_cpis,
        **overrides,
    )


def tiny_points(n=3):
    return [tiny_point(name=f"p{i}", num_cpis=3 + i) for i in range(n)]


class TestPointSpec:
    def test_round_trip_preserves_key(self):
        for point in (
            tiny_point(),
            tiny_point(measured=True),
            tiny_point(input_rate=12.5, azimuth_cycle=2),
            tiny_point(double_buffering=False, collect_training=False),
            tiny_point(backend="lowered"),
            tiny_point(contention="none"),
        ):
            rebuilt = point_from_spec(point_spec(point))
            assert rebuilt == point
            assert cache_key(rebuilt) == cache_key(point)

    def test_spec_is_json_clean(self):
        spec = point_spec(tiny_point(input_rate=0.1))
        assert point_from_spec(json.loads(json.dumps(spec))) == tiny_point(
            input_rate=0.1
        )

    def test_float_fields_round_trip_exactly(self):
        tricky = 0.1 + 2**-55  # differs from 0.1 only in the last ulp
        spec = point_spec(tiny_point(input_rate=tricky))
        assert point_from_spec(spec).input_rate == tricky

    def test_rt_points_have_no_spec(self):
        point = SimPoint(
            STAPParams.tiny(), Assignment(*TINY_COUNTS, name="rt"), mode="rt"
        )
        with pytest.raises(ConfigurationError):
            point_spec(point)

    def test_custom_machine_round_trips(self):
        # Mesh2D has no value equality, so compare by cache key (which
        # fingerprints every cost model and the speed regions).
        from dataclasses import replace

        from repro.machine import SpeedRegion, afrl_paragon, fat_nodes

        for machine in (
            afrl_paragon(),
            fat_nodes(),
            replace(
                afrl_paragon(),
                speed_regions=(SpeedRegion(0, 4, 0.25), SpeedRegion(2, 6, 2.0)),
            ),
        ):
            point = tiny_point(machine=machine)
            spec = json.loads(json.dumps(point_spec(point)))
            rebuilt = point_from_spec(spec)
            assert cache_key(rebuilt) == cache_key(point)
            assert rebuilt.machine.name == machine.name
            assert rebuilt.machine.speed_regions == machine.speed_regions

    def test_custom_machine_campaign_resumes_from_disk(self, tmp_path):
        from dataclasses import replace

        from repro.machine import SpeedRegion, afrl_paragon

        het = replace(afrl_paragon(), speed_regions=(SpeedRegion(0, 2, 0.5),))
        point = tiny_point(machine=het, num_cpis=8)
        CampaignStore(tmp_path, name="het").declare([point])
        resumed = load_campaign(tmp_path)
        assert [cache_key(p) for p in resumed.points] == [cache_key(point)]


class TestCampaignStore:
    def test_layout(self, tmp_path):
        store = CampaignStore(tmp_path / "c", name="layout")
        store.declare([tiny_point()])
        assert (tmp_path / "c" / MANIFEST_NAME).exists()
        key = cache_key(tiny_point())
        assert store.state(key) == "pending"
        Campaign([tiny_point()], store=store).run()
        assert (tmp_path / "c" / RESULTS_DIR / f"{key}.pkl").exists()
        assert store.state(key) == "complete"

    def test_declare_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path, name="idem")
        points = tiny_points()
        keys = store.declare(points)
        assert store.declare(points) == keys
        assert store.declared_keys() == keys

    def test_declare_rejects_rt_points(self, tmp_path):
        store = CampaignStore(tmp_path)
        rt = SimPoint(
            STAPParams.tiny(), Assignment(*TINY_COUNTS, name="rt"), mode="rt"
        )
        with pytest.raises(ConfigurationError):
            store.declare([rt])

    def test_manifest_survives_process_boundary(self, tmp_path):
        points = tiny_points()
        CampaignStore(tmp_path, name="persist").declare(points)
        reloaded = CampaignStore(tmp_path)
        assert reloaded.name == "persist"
        assert reloaded.points() == points

    def test_ephemeral_store_has_no_disk(self):
        store = CampaignStore(None, name="eph")
        keys = store.declare(tiny_points())
        assert store.pending_keys() == keys
        Campaign(tiny_points(), store=store).run()
        assert store.pending_keys() == []

    def test_concurrent_declares_merge(self, tmp_path):
        """Two stores declaring different points into one directory both
        end up in the manifest (reload-merge before write)."""
        a, b = CampaignStore(tmp_path), CampaignStore(tmp_path)
        a.declare([tiny_point(num_cpis=3)])
        b.declare([tiny_point(num_cpis=4)])
        merged = CampaignStore(tmp_path)
        assert set(merged.declared_keys()) == {
            cache_key(tiny_point(num_cpis=3)),
            cache_key(tiny_point(num_cpis=4)),
        }


class TestStaleEntriesAreCleanMisses:
    def test_old_schema_manifest_reads_empty(self, tmp_path):
        """A manifest from another schema era is a clean miss, not an error."""
        document = {
            "schema": MANIFEST_SCHEMA - 1,
            "cache_schema": CACHE_SCHEMA,
            "version": "0.0.0",
            "name": "old",
            "points": [{"key": "deadbeef", "label": "x", "spec": None}],
        }
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(document))
        store = CampaignStore(tmp_path)
        assert store.declared_keys() == []
        assert store.stale_manifest

    def test_old_cache_schema_manifest_reads_empty(self, tmp_path):
        document = {
            "schema": MANIFEST_SCHEMA,
            "cache_schema": CACHE_SCHEMA - 1,
            "version": "0.0.0",
            "name": "old",
            "points": [{"key": "deadbeef", "label": "x", "spec": None}],
        }
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(document))
        assert CampaignStore(tmp_path).declared_keys() == []

    def test_corrupt_manifest_reads_empty(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        store = CampaignStore(tmp_path)
        assert store.declared_keys() == []
        assert store.stale_manifest

    def test_missing_manifest_is_not_stale(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.declared_keys() == []
        assert not store.stale_manifest

    def test_stale_result_entries_miss_cleanly(self, tmp_path):
        """Result files from an old key layout (or plain garbage) are
        misses — counted, never raised — and the point just reruns."""
        store = CampaignStore(tmp_path, name="stale")
        point = tiny_point()
        [key] = store.declare([point])
        results = tmp_path / RESULTS_DIR
        results.mkdir(exist_ok=True)
        (results / f"{key}.pkl").write_bytes(b"not a pickle")
        (results / "0123456789abcdef.pkl").write_bytes(b"\x80\x05garbage")
        # Existence says complete, but the corrupt load degrades to a
        # miss at pull time and the simulation reruns.
        with counting() as delta:
            outcomes = Campaign([point], store=store).run()
        assert outcomes[0].ok and not outcomes[0].cached
        assert delta["simulations_run"] == 1
        assert delta["cache_corrupt"] >= 1

    def test_resume_refuses_cleanly_without_manifest(self, tmp_path):
        with pytest.raises(ExecutionError, match="no campaign manifest"):
            load_campaign(tmp_path)


class TestCampaignQueue:
    def test_two_states_only(self, tmp_path):
        points = tiny_points()
        campaign = Campaign(points, store=CampaignStore(tmp_path))
        assert [campaign.state(i) for i in range(3)] == ["pending"] * 3
        campaign.run(limit=2)
        assert [campaign.state(i) for i in range(3)] == [
            "complete", "complete", "pending",
        ]
        assert campaign.pending() == points[2:]

    def test_limit_bounds_fresh_simulations_only(self, tmp_path):
        points = tiny_points()
        campaign = Campaign(points, store=CampaignStore(tmp_path))
        campaign.run(limit=1)
        # Complete points are still served; only one new simulation runs.
        with counting() as delta:
            outcomes = campaign.run(limit=1)
        assert len(outcomes) == 2
        assert delta["simulations_run"] == 1
        assert delta["cache_hits_memory"] + delta["cache_hits_disk"] == 1

    def test_resume_from_disk_is_byte_identical_and_recomputes_nothing(
        self, tmp_path
    ):
        points = tiny_points()
        reference = run_points(points, cache=None)

        Campaign(points, store=CampaignStore(tmp_path)).run(limit=2)
        # A fresh process would rebuild everything from the directory:
        resumed = load_campaign(tmp_path)
        assert resumed.points == points
        with counting() as delta:
            outcomes = resumed.run()
        assert delta["simulations_run"] == 1
        assert delta["cache_hits_disk"] == 2
        assert [pickle.dumps(o.result.metrics) for o in outcomes] == [
            pickle.dumps(o.result.metrics) for o in reference
        ]

    def test_second_store_sees_first_stores_results(self, tmp_path):
        """Two processes sharing a directory share completions."""
        points = tiny_points()
        Campaign(points, store=CampaignStore(tmp_path)).run()
        with counting() as delta:
            outcomes = Campaign(points, store=CampaignStore(tmp_path)).run()
        assert all(o.cached for o in outcomes)
        assert delta["simulations_run"] == 0

    def test_run_points_is_an_ephemeral_campaign(self):
        """The thin-wrapper contract: no store leaks, outcomes in order."""
        points = tiny_points()
        outcomes = run_points(points, cache=None)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok and not o.cached for o in outcomes)

    def test_jobs_validation_still_raises(self):
        with pytest.raises(ExecutionError):
            run_points(tiny_points(1), jobs=0)


class TestCampaignProgress:
    def test_progress_from_disk_alone(self, tmp_path):
        points = tiny_points()
        Campaign(points, store=CampaignStore(tmp_path, name="prog")).run(limit=2)
        progress = CampaignStore(tmp_path).progress()
        assert progress.name == "prog"
        assert (progress.total, progress.complete, progress.pending) == (3, 2, 1)
        assert progress.fraction == pytest.approx(2 / 3)
        assert set(progress.stage_comp) == {
            "doppler", "easy_weight", "hard_weight", "easy_beamform",
            "hard_beamform", "pulse_compression", "cfar",
        }
        assert all(len(v) == 2 for v in progress.stage_comp.values())

    def test_progress_probe_is_counter_neutral(self, tmp_path):
        Campaign(tiny_points(), store=CampaignStore(tmp_path)).run()
        with counting() as delta:
            CampaignStore(tmp_path).progress()
        assert not any(delta.values())

    def test_skip_loading_results(self, tmp_path):
        Campaign(tiny_points(), store=CampaignStore(tmp_path)).run()
        progress = CampaignStore(tmp_path).progress(load_results=False)
        assert progress.complete == 3
        assert progress.stage_comp == {}


class TestSweepCampaigns:
    def test_speedup_series_resumes_through_campaign_dir(self, tmp_path):
        from repro.experiments import speedup_series

        sweep = dict(num_cpis=6)
        serial = speedup_series("cfar", (4, 8), cache=None, **sweep)
        first = speedup_series(
            "cfar", (4, 8), campaign_dir=tmp_path, **sweep
        )
        assert first == serial
        with counting() as delta:
            resumed = speedup_series(
                "cfar", (4, 8), campaign_dir=tmp_path, **sweep
            )
        assert resumed == serial
        assert delta["simulations_run"] == 0
        progress = CampaignStore(tmp_path).progress(load_results=False)
        assert (progress.total, progress.complete) == (2, 2)

    def test_bench_store_env_routes_to_campaign(self, tmp_path, monkeypatch):
        import sys

        sys.path.insert(0, "benchmarks") if "benchmarks" not in sys.path else None
        import common

        monkeypatch.setenv(common.CAMPAIGN_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(common, "_campaign_store", None)
        store = common.bench_store()
        assert isinstance(store, CampaignStore)
        assert store.root == tmp_path
        # Unset → back to the default-cache sentinel.
        monkeypatch.delenv(common.CAMPAIGN_DIR_ENV)
        from repro.exec import USE_DEFAULT_CACHE

        assert common.bench_store() is USE_DEFAULT_CACHE
