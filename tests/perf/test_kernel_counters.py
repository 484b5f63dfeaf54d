"""Kernel counters: the STAP kernels' ``stap_kernel_*`` metrics-registry series."""

import sys
import threading

import pytest

from repro import Assignment, STAPPipeline
from repro.obs.metrics import metrics_registry, record_kernel
from repro.perf import achieved_vs_table1, kernel_stats, kernel_summary
from repro.radar import CPIStream, RadarScenario, STAPParams
from repro.stap.flops import PAPER_TABLE1, doppler_flops
from repro.stap.reference import SequentialSTAP

KERNELS = ("doppler", "easy_weight", "hard_weight", "easy_beamform",
           "hard_beamform", "pulse_compression", "cfar")


def cubes(params, count):
    return CPIStream(params, RadarScenario(seed=7)).take(count)


@pytest.fixture(autouse=True)
def restore_singleton():
    yield
    metrics_registry.disable()
    metrics_registry.reset()


class TestCounterMechanics:
    def test_disabled_by_default_records_nothing(self):
        assert not metrics_registry.enabled
        record_kernel("doppler", 1.0, 100.0)
        assert kernel_stats() == {}
        assert metrics_registry.snapshot().series() == []

    def test_concurrent_records_are_not_lost(self):
        """More recording threads than cores, switching as often as the
        interpreter allows, each kernel's first record contended: every
        call, second and flop is counted."""
        names = [f"kernel{index}" for index in range(2000)]

        def record():
            for name in names:
                record_kernel(name, 1.0, 2.0)

        workers = [threading.Thread(target=record) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with metrics_registry.collect():
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        stats = kernel_stats()
        assert sorted(stats) == sorted(names)
        for row in stats.values():
            assert (row["calls"], row["seconds"], row["flops"]) == (8, 8.0, 16.0)

    def test_record_accumulates(self):
        with metrics_registry.collect():
            record_kernel("doppler", 0.5, 100.0)
            record_kernel("doppler", 0.5, 300.0)
        stats = kernel_stats()["doppler"]
        assert stats["calls"] == 2
        assert stats["seconds"] == pytest.approx(1.0)
        assert stats["flops"] == pytest.approx(400.0)
        assert stats["flops_per_second"] == pytest.approx(400.0)

    def test_collect_restores_prior_state(self):
        with metrics_registry.collect():
            assert metrics_registry.enabled
            record_kernel("cfar", 1.0, 10.0)
        assert not metrics_registry.enabled
        # Stats survive past the block for post-hoc reporting.
        assert kernel_stats()["cfar"]["flops"] == pytest.approx(10.0)

    def test_collect_nested_keeps_outer_enabled(self):
        metrics_registry.enable()
        with metrics_registry.collect():
            pass
        assert metrics_registry.enabled

    def test_summary_lists_kernels(self):
        with metrics_registry.collect():
            record_kernel("doppler", 0.25, 1e6)
        text = kernel_summary(metrics_registry.snapshot())
        assert "doppler" in text
        assert "total" in text


class TestInstrumentedKernels:
    def test_reference_run_populates_all_kernels(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with metrics_registry.collect():
            for cube in cubes(params, 2):
                ref.process(cube)
        stats = kernel_stats()
        for kernel in KERNELS:
            assert kernel in stats, f"kernel {kernel!r} never recorded"
            assert stats[kernel]["seconds"] > 0.0
            assert stats[kernel]["flops"] > 0.0

    def test_doppler_flops_credit_matches_table(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with metrics_registry.collect():
            ref.process(cubes(params, 1)[0])
        stats = kernel_stats()
        # One full CPI: the doppler kernel is credited exactly the analytic
        # per-CPI count (all range rows processed once).
        assert stats["doppler"]["flops"] == pytest.approx(doppler_flops(params))

    def test_disabled_run_records_nothing(self):
        params = STAPParams.tiny()
        SequentialSTAP(params).process(cubes(params, 1)[0])
        assert kernel_stats() == {}

    def test_pipeline_run_records_every_kernel(self):
        """The registry's one switch is enough: a functional pipeline run
        under ``collect()`` records the seven kernels' series, and each
        full CPI, split over two Doppler ranks, credits Doppler one cube.
        Two CPIs: the weight tasks train on a CPI for the next one."""
        params = STAPParams.tiny()
        pipeline = STAPPipeline(
            params,
            Assignment(2, 1, 2, 1, 1, 1, 1, name="kernels"),
            mode="functional",
            stream=CPIStream(params, RadarScenario(seed=7)),
            num_cpis=2,
        )
        with metrics_registry.collect():
            pipeline.run()
        snapshot = metrics_registry.snapshot()
        for kernel in KERNELS:
            assert snapshot.value(
                "stap_kernel_calls_total", {"kernel": kernel}
            ) >= 1, f"kernel {kernel!r} never recorded"
        assert snapshot.value(
            "stap_kernel_flops_total", {"kernel": "doppler"}
        ) == pytest.approx(2 * doppler_flops(params), rel=1e-12)


class TestAchievedVsTable1:
    def test_paper_fraction_fields(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with metrics_registry.collect():
            for cube in cubes(params, 3):
                ref.process(cube)
        table = achieved_vs_table1(metrics_registry.snapshot(), num_cpis=3)
        for kernel, row in table.items():
            assert row["calls"] >= 1
            assert row["flops_per_second"] > 0.0
            if kernel in PAPER_TABLE1:
                assert row["paper_flops_per_cpi"] == PAPER_TABLE1[kernel]
                assert row["paper_fraction"] == pytest.approx(
                    row["flops"] / (3 * PAPER_TABLE1[kernel])
                )

    def test_uses_singleton_by_default(self):
        with metrics_registry.collect():
            record_kernel("doppler", 1.0, 2e6)
        table = achieved_vs_table1(num_cpis=1)
        assert table["doppler"]["flops"] == pytest.approx(2e6)
