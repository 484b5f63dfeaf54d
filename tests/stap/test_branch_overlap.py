"""Branch overlap: the sequential reference's detection and training
branches run at once (``repro.stap.threads.run_beside``), bit-identical.

* :func:`run_beside` order, results and errors, and splits nested on both
  of its sides finishing instead of waiting on a busy pool;
* :class:`SequentialSTAP` reports and pending weights equal for thread
  budgets 1, 2 and 3 (compared as float views), detection reading the
  weights as they were before training;
* errors from either branch propagate without a hang, and the pool stays
  usable after them;
* kernel counters record the same calls and flops with or without the
  overlap.
"""

import hashlib
import json
import threading
import time

import numpy as np
import pytest

from repro import CPIStream, SequentialSTAP, STAPParams
from repro.obs.metrics import metrics_registry
from repro.perf import kernel_stats
from repro.stap import reference, threads
from repro.stap.hard_weights import HardWeightComputer
from repro.stap.threads import run_beside, split_batch

from tests.core.test_golden_functional import (
    GOLDEN_PATH,
    NUM_CPIS,
    golden_scenario,
    report_rows,
)
from tests.stap.test_kernel_threads import SPLITS, same_bits, split_into

#: Seconds a call may take before it counts as hung.
TIMEOUT = 60.0


def within_timeout(call):
    """Run ``call()`` on a daemon thread; return its result or re-raise
    its error, failing if it has not finished after :data:`TIMEOUT`."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as error:  # handed to the test thread below
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "call hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestRunBeside:
    @pytest.mark.parametrize("count", SPLITS)
    def test_returns_both_results(self, count):
        with split_into(count):
            assert run_beside(lambda: "side", lambda: "main") == ("side", "main")

    def test_one_thread_runs_side_then_main_inline(self):
        order = []
        with split_into(1):
            run_beside(lambda: order.append(("side", threading.get_ident())),
                       lambda: order.append(("main", threading.get_ident())))
        assert order == [("side", threading.get_ident()),
                         ("main", threading.get_ident())]

    @pytest.mark.parametrize("count", SPLITS)
    def test_side_error_propagates(self, count):
        """After main has finished; on one thread main never starts."""
        finished = []

        def side():
            raise ValueError("side")

        with split_into(count), pytest.raises(ValueError, match="side"):
            run_beside(side, lambda: finished.append(True))
        assert finished == ([] if count == 1 else [True])

    def test_main_error_waits_for_a_started_side(self):
        started, finished = threading.Event(), threading.Event()

        def side():
            started.set()
            time.sleep(0.1)
            finished.set()

        def main():
            assert started.wait(TIMEOUT)
            raise ValueError("main")

        with split_into(2), pytest.raises(ValueError, match="main"):
            within_timeout(lambda: run_beside(side, main))
        assert finished.is_set()

    def test_main_error_wins_when_both_raise(self):
        started = threading.Event()

        def side():
            started.set()
            raise ValueError("side")

        def main():
            assert started.wait(TIMEOUT)
            raise KeyError("main")

        with split_into(2), pytest.raises(KeyError, match="main"):
            within_timeout(lambda: run_beside(side, main))

    @pytest.mark.parametrize("count", (2, 3))
    def test_splits_nested_on_both_sides_finish(self, count):
        """Each side splits a batch while the other holds a pool thread; a
        caller that only waited on its queued chunks would never return."""
        seen = {"side": [], "main": []}
        lock = threading.Lock()

        def splitting(name):
            def run(lo, hi):
                time.sleep(0.01)
                with lock:
                    seen[name].append((lo, hi))

            return lambda: split_batch(run, 12, 1)

        with split_into(count):
            within_timeout(lambda: run_beside(splitting("side"), splitting("main")))
        for chunks in seen.values():
            chunks.sort()
            assert len(chunks) == count
            assert chunks[0][0] == 0 and chunks[-1][1] == 12
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


def run_chain(params, num_cpis, azimuth_cycle, count):
    """Reports and pending weights of a sequential run at split ``count``."""
    stream = CPIStream(params, golden_scenario(), azimuth_cycle=azimuth_cycle)
    stap = SequentialSTAP(params)
    with split_into(count):
        reports = stap.process_stream(stream.take(num_cpis))
    weights = [
        (stap.pending_easy_weights(azimuth), stap.pending_hard_weights(azimuth))
        for azimuth in range(azimuth_cycle)
    ]
    return [report_rows(report) for report in reports], weights


class TestOverlapIdentity:
    @pytest.mark.parametrize(
        "scale, num_cpis, azimuth_cycle", [("small", 6, 2), ("paper", 2, 1)]
    )
    def test_every_budget_gives_the_same_bits(self, scale, num_cpis, azimuth_cycle):
        params = getattr(STAPParams, scale)()
        runs = [run_chain(params, num_cpis, azimuth_cycle, count) for count in SPLITS]
        rows, weights = runs[0]
        assert any(rows)
        for other_rows, other_weights in runs[1:]:
            assert other_rows == rows
            for (easy, hard), (other_easy, other_hard) in zip(weights, other_weights):
                assert same_bits(other_easy, easy)
                assert same_bits(other_hard, hard)

    @pytest.mark.parametrize("count", SPLITS)
    def test_detection_sees_the_pre_training_weights(self, count, monkeypatch):
        params = STAPParams.small()
        cubes = CPIStream(params, golden_scenario()).take(3)
        stap = SequentialSTAP(params)
        with split_into(count):
            stap.process(cubes[0])
        seen = {}

        def recording(name, kernel):
            def wrapped(data, weights, params, *args, **kwargs):
                seen[name] = digest(weights)
                return kernel(data, weights, params, *args, **kwargs)

            monkeypatch.setattr(reference, name, wrapped)

        recording("beamform_easy", reference.beamform_easy)
        recording("beamform_hard", reference.beamform_hard)
        for cube in cubes[1:]:
            easy, hard = stap.pending_easy_weights(), stap.pending_hard_weights()
            before = {"beamform_easy": digest(easy), "beamform_hard": digest(hard)}
            with split_into(count):
                stap.process(cube)
            assert seen == before
            assert digest(easy) == before["beamform_easy"]
            assert digest(hard) == before["beamform_hard"]
            assert stap.pending_easy_weights() is not easy
            assert stap.pending_hard_weights() is not hard


def raising(error):
    def fail(*args, **kwargs):
        raise error

    return fail


fail = raising(RuntimeError("injected"))


class TestBranchErrors:
    @pytest.mark.parametrize("count", (1, 2))
    @pytest.mark.parametrize("target", [
        (reference, "cfar_detect"),
        (HardWeightComputer, "update"),
    ], ids=["detection", "training"])
    def test_error_propagates_without_a_hang(self, count, target, monkeypatch):
        params = STAPParams.small()
        cubes = CPIStream(params, golden_scenario()).take(2)
        stap = SequentialSTAP(params)
        monkeypatch.setattr(*target, fail)
        with split_into(count), pytest.raises(RuntimeError, match="injected"):
            within_timeout(lambda: stap.process_stream(cubes))

    def test_training_error_wins_when_both_branches_raise(self, monkeypatch):
        params = STAPParams.small()
        cube = CPIStream(params, golden_scenario()).cube(0)
        monkeypatch.setattr(reference, "cfar_detect", fail)
        monkeypatch.setattr(HardWeightComputer, "update", raising(KeyError("training")))
        with split_into(2), pytest.raises(KeyError, match="training"):
            within_timeout(lambda: SequentialSTAP(params).process(cube))

    def test_pool_still_matches_the_golden_seed_afterwards(self, monkeypatch):
        params = STAPParams.small()
        cubes = CPIStream(params, golden_scenario()).take(NUM_CPIS)
        with monkeypatch.context() as patch, split_into(2):
            patch.setattr(reference, "cfar_detect", fail)
            with pytest.raises(RuntimeError, match="injected"):
                within_timeout(lambda: SequentialSTAP(params).process(cubes[0]))
        golden = json.loads(GOLDEN_PATH.read_text())["small"]
        with split_into(2):
            reports = within_timeout(
                lambda: SequentialSTAP(params).process_stream(cubes)
            )
        assert [report_rows(report) for report in reports] == [
            entry["detections"] for entry in golden
        ]


class TestCountersUnderOverlap:
    @pytest.fixture(autouse=True)
    def restore_counters(self):
        yield
        metrics_registry.disable()
        metrics_registry.reset()

    def test_paper_scale_calls_and_flops_match_one_thread(self, monkeypatch):
        params = STAPParams.paper()
        cubes = CPIStream(params, golden_scenario()).take(2)
        recorded = {}
        for budget in (1, 2):
            monkeypatch.setattr(threads, "_budget", budget)
            with metrics_registry.collect():
                SequentialSTAP(params).process_stream(cubes)
            recorded[budget] = {
                name: (stats["calls"], stats["flops"])
                for name, stats in kernel_stats().items()
            }
        assert len(recorded[1]) == 7
        assert recorded[2] == recorded[1]
