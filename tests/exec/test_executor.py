"""The batch executor: ordering, error capture, progress, parallel identity."""

import pickle

import pytest

from repro import Assignment, STAPParams
from repro.errors import ExecutionError
from repro.exec import (
    ResultCache,
    SimPoint,
    execute_point,
    run_points,
)
from tests.exec.counting import counting

pytestmark = pytest.mark.exec

TINY = STAPParams.tiny()


def tiny_point(num_cpis=5, cfar=1):
    return SimPoint(
        TINY, Assignment(2, 1, 2, 1, 1, 1, cfar, name=f"p{num_cpis}-{cfar}"),
        num_cpis=num_cpis,
    )


def impossible_point():
    """More nodes than the machine has: fails at pipeline construction."""
    return SimPoint(
        STAPParams.paper(),
        Assignment(320, 16, 112, 16, 28, 16, 16, name="too-big"),
        num_cpis=5,
    )


class TestOrderingAndErrors:
    def test_results_in_input_order(self):
        points = [tiny_point(num_cpis=c) for c in (7, 5, 6)]
        outcomes = run_points(points, jobs=1, cache=ResultCache())
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.point.num_cpis for o in outcomes] == [7, 5, 6]
        assert [o.result.num_cpis for o in outcomes] == [7, 5, 6]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_failure_does_not_kill_the_batch(self, jobs):
        points = [impossible_point(), tiny_point()]
        outcomes = run_points(points, jobs=jobs, cache=ResultCache())
        assert not outcomes[0].ok
        assert "MachineError" in outcomes[0].error
        assert outcomes[1].ok
        with pytest.raises(ExecutionError, match="too-big"):
            outcomes[0].unwrap()

    def test_execute_point_raises_on_failure(self):
        with pytest.raises(ExecutionError):
            execute_point(impossible_point(), cache=None)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExecutionError):
            run_points([tiny_point()], jobs=0)


class TestProgressAndCounters:
    def test_progress_fires_once_per_point_including_hits(self):
        cache = ResultCache()
        points = [tiny_point(num_cpis=c) for c in (5, 6)]
        run_points(points, jobs=1, cache=cache)
        seen = []
        run_points(
            points + [tiny_point(num_cpis=7)],
            jobs=1,
            cache=cache,
            progress=lambda done, total, o: seen.append((done, total, o.cached)),
        )
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(s[1] == 3 for s in seen)
        assert [s[2] for s in seen] == [True, True, False]

    def test_counters_account_for_every_point(self):
        cache = ResultCache()
        points = [tiny_point(num_cpis=c) for c in (5, 6)]
        with counting() as delta:
            run_points(points, jobs=1, cache=cache)
            run_points(points, jobs=1, cache=cache)
        assert delta["points_submitted"] == 4
        assert delta["simulations_run"] == 2
        assert delta["cache_hits_memory"] == 2
        assert delta["cache_stores"] == 2

    def test_no_cache_means_every_point_simulates(self):
        with counting() as delta:
            run_points([tiny_point(), tiny_point()], jobs=1, cache=None)
        assert delta["simulations_run"] == 2
        assert delta["cache_misses"] == 0


class TestProgressEdgeCases:
    def test_raising_callback_is_contained(self):
        """A flaky progress consumer must not kill the batch."""
        calls = []

        def bad_progress(done, total, outcome):
            calls.append(done)
            raise RuntimeError("dashboard exploded")

        with counting() as delta:
            outcomes = run_points(
                [tiny_point(num_cpis=5), tiny_point(num_cpis=6)],
                jobs=1, cache=None, progress=bad_progress,
            )
        assert all(o.ok for o in outcomes)
        assert calls == [1, 2]  # still called for every point
        assert delta["progress_errors"] == 2
        assert delta["point_errors"] == 0

    def test_all_cached_batch_spawns_no_pool(self, monkeypatch):
        """A fully cached batch must resolve without a worker pool."""
        from repro.exec import executor as executor_module

        cache = ResultCache()
        points = [tiny_point(num_cpis=c) for c in (5, 6, 7)]
        run_points(points, jobs=1, cache=cache)

        def no_pool(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor spawned for cached batch")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        seen = []
        outcomes = run_points(
            points, jobs=4, cache=cache,
            progress=lambda done, total, o: seen.append((done, total)),
        )
        assert all(o.cached for o in outcomes)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_outcomes_still_advance_progress(self, jobs):
        """Failed points count toward completed/total like any other."""
        seen = []
        outcomes = run_points(
            [impossible_point(), tiny_point()],
            jobs=jobs, cache=None,
            progress=lambda done, total, o: seen.append(
                (done, total, o.error is not None)
            ),
        )
        assert [s[:2] for s in sorted(seen)] == [(1, 2), (2, 2)]
        assert sum(1 for s in seen if s[2]) == 1  # exactly the failed point
        assert not outcomes[0].ok and outcomes[1].ok


class TestParallelIdentity:
    def test_parallel_results_byte_equal_to_serial(self):
        points = [tiny_point(num_cpis=c, cfar=f)
                  for c, f in ((5, 1), (6, 1), (5, 2), (7, 2))]
        serial = run_points(points, jobs=1, cache=ResultCache())
        parallel = run_points(points, jobs=2, cache=ResultCache())
        for s, p in zip(serial, parallel):
            assert p.ok and s.ok
            assert not p.cached
            assert pickle.dumps(p.result.metrics) == pickle.dumps(s.result.metrics)
            assert p.result.makespan == s.result.makespan
            assert p.result.network_messages == s.result.network_messages
            assert p.result.network_bytes == s.result.network_bytes

    def test_repeated_parallel_sweep_all_cached(self):
        cache = ResultCache()
        points = [tiny_point(num_cpis=c) for c in (5, 6, 7)]
        run_points(points, jobs=2, cache=cache)
        with counting() as delta:
            outcomes = run_points(points, jobs=2, cache=cache)
        assert all(o.cached for o in outcomes)
        assert delta["simulations_run"] == 0
        assert delta["cache_hits_memory"] == 3
