"""run_measured's probe phase routes through the result cache."""

import pytest

from repro import Assignment, CPIStream, RadarScenario, STAPParams, STAPPipeline
from repro.exec import ResultCache, set_default_cache
from tests.exec.counting import counting

pytestmark = pytest.mark.exec

TINY = STAPParams.tiny()
COUNTS = (2, 1, 2, 1, 1, 1, 1)


@pytest.fixture
def fresh_default_cache():
    previous = set_default_cache(ResultCache())
    yield
    set_default_cache(previous)


def make_pipeline(**kwargs):
    return STAPPipeline(TINY, Assignment(*COUNTS, name="probe"), num_cpis=6, **kwargs)


class TestProbeCache:
    def test_identical_configs_probe_once(self, fresh_default_cache):
        with counting() as mid:
            first = make_pipeline().run_measured()
        assert mid["simulations_run"] == 1  # the probe itself
        assert mid["probe_cache_hits"] == 0

        with counting() as delta:
            second = make_pipeline().run_measured()
        assert delta["probe_cache_hits"] == 1
        assert delta["simulations_run"] == 0
        # Bit-identical results either way.
        assert second.metrics == first.metrics

    def test_same_pipeline_object_reprobes_from_cache(self, fresh_default_cache):
        pipeline = make_pipeline()
        first = pipeline.run_measured()
        with counting() as delta:
            second = pipeline.run_measured()
        assert delta["probe_cache_hits"] == 1
        assert second.metrics == first.metrics

    def test_custom_steering_bypasses_cache(self, fresh_default_cache):
        from repro.stap.reference import default_steering

        steering = default_steering(TINY)
        with counting() as delta:
            make_pipeline(steering=steering).run_measured()
            make_pipeline(steering=steering).run_measured()
        assert delta["probe_cache_hits"] == 0
        assert delta["simulations_run"] == 0  # ran outside the exec layer

    def test_functional_mode_bypasses_cache(self, fresh_default_cache, tiny_scenario):
        stream = CPIStream(TINY, tiny_scenario)
        pipeline = STAPPipeline(
            TINY,
            Assignment(*COUNTS, name="probe-func"),
            mode="functional",
            stream=stream,
            num_cpis=5,
        )
        with counting() as delta:
            result = pipeline.run_measured()
        assert delta["probe_cache_hits"] == 0
        assert delta["simulations_run"] == 0
        assert len(result.reports) == 5

    def test_probe_result_shared_with_executor_points(self, fresh_default_cache):
        """An unmeasured executor point and run_measured's probe are the
        same configuration, so whichever runs first feeds the other."""
        from repro.exec import SimPoint, execute_point

        execute_point(SimPoint(TINY, Assignment(*COUNTS, name="x"), num_cpis=6))
        with counting() as delta:
            make_pipeline().run_measured()
        assert delta["probe_cache_hits"] == 1
        assert delta["simulations_run"] == 0

    def test_worker_probes_are_counted(self, fresh_default_cache):
        """Measured points probe inside pool workers; their probe phases
        reach the parent with the workers' snapshots, so every measured
        point shows one probe and the CLI's "simulated" figure counts the
        probes too."""
        from repro.cli import _executor_counts
        from repro.exec import SimPoint, run_points
        from repro.obs.metrics import metrics_registry

        points = [
            SimPoint(TINY, Assignment(*COUNTS, name=f"m{c}"), num_cpis=c,
                     measured=True)
            for c in (5, 6)
        ]
        with counting() as delta:
            outcomes = run_points(points, jobs=2, cache=ResultCache())
            cli = _executor_counts(metrics_registry.snapshot())
        assert all(o.ok and not o.cached for o in outcomes)
        assert delta["probe_simulations"] + delta["probe_cache_hits"] == 2
        assert delta["points_simulated"] == 2
        assert cli["simulated"] == 4
