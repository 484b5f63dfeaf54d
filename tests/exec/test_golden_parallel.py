"""Golden equality: parallel and cached sweeps are bit-identical to serial.

Simulations are deterministic, so the executor must be a pure
performance-layer change: ``jobs>1`` fans points over worker processes
and the cache replays stored results, but every ``PipelineMetrics`` a
caller sees has to match the serial, uncached run float for float (in
fact byte for byte, compared through pickle).

This is also the tier-1 "reduced sweep at jobs=2" exercise: the sweeps
here are small enough for the plain test run while still crossing the
process-pool path.
"""

import pickle

import pytest

from repro import CASE3, STAPParams
from repro.exec import ResultCache, SimPoint, execute_point, run_points
from repro.experiments import scalability_curve, speedup_series
from tests.exec.counting import counting

pytestmark = pytest.mark.exec


class TestSpeedupSeriesGolden:
    def test_parallel_and_cached_match_serial(self):
        sweep = dict(num_cpis=6)
        serial = speedup_series("cfar", (4, 8), jobs=1, cache=None, **sweep)
        cache = ResultCache()
        parallel = speedup_series("cfar", (4, 8), jobs=2, cache=cache, **sweep)
        assert parallel == serial  # frozen dataclasses: exact float equality

        with counting() as delta:
            cached = speedup_series("cfar", (4, 8), jobs=2, cache=cache, **sweep)
        assert cached == serial
        assert delta["simulations_run"] == 0, delta
        assert delta["cache_hits_memory"] == 2, delta


class TestScalabilityCurveGolden:
    def test_parallel_and_cached_match_serial(self):
        sweep = dict(num_cpis=8, measured=True)
        serial = scalability_curve((20, 30), jobs=1, cache=None, **sweep)
        cache = ResultCache()
        parallel = scalability_curve((20, 30), jobs=2, cache=cache, **sweep)
        assert parallel == serial

        with counting() as delta:
            cached = scalability_curve((20, 30), jobs=2, cache=cache, **sweep)
        assert cached == serial
        assert delta["simulations_run"] == 0, delta


class TestTable7PointGolden:
    def test_bench_point_matches_direct_pipeline_run(self):
        """A bench_table7-style point through the executor+cache equals a
        direct STAPPipeline run, byte for byte."""
        from repro.core.pipeline import STAPPipeline

        direct = STAPPipeline(STAPParams.paper(), CASE3, num_cpis=8).run()
        point = SimPoint(STAPParams.paper(), CASE3, num_cpis=8)
        cache = ResultCache()
        fresh = execute_point(point, cache=cache)
        cached = execute_point(point, cache=cache)
        assert pickle.dumps(fresh.metrics) == pickle.dumps(direct.metrics)
        assert pickle.dumps(cached.metrics) == pickle.dumps(direct.metrics)
        assert fresh.makespan == direct.makespan
        assert fresh.network_messages == direct.network_messages

    def test_parallel_table7_point_matches_serial(self):
        point = SimPoint(STAPParams.paper(), CASE3, num_cpis=8)
        other = SimPoint(STAPParams.paper(), CASE3, num_cpis=7)
        serial = run_points([point, other], jobs=1, cache=None)
        parallel = run_points([point, other], jobs=2, cache=None)
        for s, p in zip(serial, parallel):
            assert pickle.dumps(p.result.metrics) == pickle.dumps(s.result.metrics)
