"""Kernel counters: opt-in timing/flops accounting for the STAP kernels."""

import sys
import threading

import pytest

from repro.perf import KernelCounters, achieved_vs_table1, kernel_counters
from repro.radar import CPIStream, RadarScenario, STAPParams
from repro.stap.flops import PAPER_TABLE1, doppler_flops
from repro.stap.reference import SequentialSTAP


def cubes(params, count):
    return CPIStream(params, RadarScenario(seed=7)).take(count)


@pytest.fixture(autouse=True)
def restore_singleton():
    yield
    kernel_counters.disable()
    kernel_counters.reset()


class TestCounterMechanics:
    def test_disabled_by_default_records_nothing(self):
        counters = KernelCounters()
        assert not counters.enabled
        with counters.timed("doppler", 100.0):
            pass
        assert counters.stats() == {}

    def test_concurrent_records_are_not_lost(self):
        """More recording threads than cores, switching as often as the
        interpreter allows, each kernel's first record contended: every
        call, second and flop is counted."""
        counters = KernelCounters()
        counters.enable()
        names = [f"kernel{index}" for index in range(2000)]

        def record():
            for name in names:
                counters.record(name, 1.0, 2.0)

        workers = [threading.Thread(target=record) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(counters.stats()) == sorted(names)
        for stats in counters.stats().values():
            assert (stats.calls, stats.seconds, stats.flops) == (8, 8.0, 16.0)

    def test_record_accumulates(self):
        counters = KernelCounters()
        counters.enable()
        counters.record("doppler", 0.5, 100.0)
        counters.record("doppler", 0.5, 300.0)
        stats = counters.stats()["doppler"]
        assert stats.calls == 2
        assert stats.seconds == pytest.approx(1.0)
        assert stats.flops == pytest.approx(400.0)
        assert stats.flops_per_second == pytest.approx(400.0)

    def test_collect_restores_prior_state(self):
        counters = KernelCounters()
        with counters.collect():
            assert counters.enabled
            counters.record("cfar", 1.0, 10.0)
        assert not counters.enabled
        # Stats survive past the block for post-hoc reporting.
        assert counters.stats()["cfar"].flops == pytest.approx(10.0)

    def test_collect_nested_keeps_outer_enabled(self):
        counters = KernelCounters()
        counters.enable()
        with counters.collect():
            pass
        assert counters.enabled

    def test_summary_lists_kernels(self):
        counters = KernelCounters()
        counters.enable()
        counters.record("doppler", 0.25, 1e6)
        text = counters.summary()
        assert "doppler" in text
        assert "total" in text


class TestInstrumentedKernels:
    def test_reference_run_populates_all_kernels(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with kernel_counters.collect():
            for cube in cubes(params, 2):
                ref.process(cube)
        stats = kernel_counters.stats()
        for kernel in ("doppler", "easy_weight", "hard_weight",
                       "easy_beamform", "hard_beamform", "pulse_compression",
                       "cfar"):
            assert kernel in stats, f"kernel {kernel!r} never recorded"
            assert stats[kernel].seconds > 0.0
            assert stats[kernel].flops > 0.0

    def test_doppler_flops_credit_matches_table(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with kernel_counters.collect():
            ref.process(cubes(params, 1)[0])
        stats = kernel_counters.stats()
        # One full CPI: the doppler kernel is credited exactly the analytic
        # per-CPI count (all range rows processed once).
        assert stats["doppler"].flops == pytest.approx(doppler_flops(params))

    def test_disabled_run_records_nothing(self):
        params = STAPParams.tiny()
        kernel_counters.reset()
        SequentialSTAP(params).process(cubes(params, 1)[0])
        assert kernel_counters.stats() == {}


class TestAchievedVsTable1:
    def test_paper_fraction_fields(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with kernel_counters.collect():
            for cube in cubes(params, 3):
                ref.process(cube)
        table = achieved_vs_table1(kernel_counters, num_cpis=3)
        for kernel, row in table.items():
            assert row["calls"] >= 1
            assert row["flops_per_second"] > 0.0
            if kernel in PAPER_TABLE1:
                assert row["paper_flops_per_cpi"] == PAPER_TABLE1[kernel]
                assert row["paper_fraction"] == pytest.approx(
                    row["flops"] / (3 * PAPER_TABLE1[kernel])
                )

    def test_uses_singleton_by_default(self):
        kernel_counters.reset()
        kernel_counters.enable()
        kernel_counters.record("doppler", 1.0, 2e6)
        kernel_counters.disable()
        table = achieved_vs_table1(num_cpis=1)
        assert table["doppler"]["flops"] == pytest.approx(2e6)
