"""Design-choice ablations: double buffering, data collection, replication.

These verify that the machinery behind DESIGN.md's ablation benchmarks
behaves correctly at test scale — and that disabling an optimization never
changes the *computed results*, only the timing.
"""

import pytest

from repro import (
    Assignment,
    CPIStream,
    RadarScenario,
    ReplicatedSTAPPipeline,
    STAPParams,
    STAPPipeline,
    SequentialSTAP,
    TargetTruth,
)
from repro.errors import ConfigurationError
from repro.machine.network import Network


@pytest.fixture(scope="module")
def params():
    return STAPParams.small()


@pytest.fixture(scope="module")
def assignment():
    return Assignment(4, 2, 8, 2, 4, 2, 2, name="ablate")


class TestDoubleBufferingAblation:
    def test_synchronous_mode_is_not_faster(self, params, assignment):
        buffered = STAPPipeline(params, assignment, num_cpis=10).run()
        synchronous = STAPPipeline(
            params, assignment, num_cpis=10, double_buffering=False
        ).run()
        assert (
            synchronous.metrics.measured_throughput
            <= buffered.metrics.measured_throughput * 1.001
        )

    def test_functional_results_identical(self):
        tiny = STAPParams.tiny()
        scenario = RadarScenario(
            clutter_to_noise_db=40.0,
            targets=(TargetTruth(20, 0.25, 0.0, 5.0),),
            seed=11,
        )
        reference = SequentialSTAP(tiny).process_stream(
            CPIStream(tiny, scenario).take(4)
        )
        result = STAPPipeline(
            tiny,
            Assignment(3, 2, 2, 2, 2, 2, 2, name="sync"),
            mode="functional",
            stream=CPIStream(tiny, scenario),
            num_cpis=4,
            double_buffering=False,
        ).run()
        for a, b in zip(reference, result.reports):
            assert a.same_detections(b)


class TestDataCollectionAblation:
    def test_uncollected_training_moves_more_bytes(self, params, assignment):
        collected = STAPPipeline(params, assignment, num_cpis=8).run()
        dumped = STAPPipeline(
            params, assignment, num_cpis=8, collect_training=False
        ).run()
        assert dumped.network_bytes > collected.network_bytes

    def test_uncollected_training_shifts_costs(self, params, assignment):
        """The tradeoff: no collection means more wire bytes and a strided
        receive-side sift, but a cheap contiguous pack.  At the test scale
        (small cube, few nodes) the extra bytes dominate."""
        collected = STAPPipeline(params, assignment, num_cpis=8).run()
        dumped = STAPPipeline(
            params, assignment, num_cpis=8, collect_training=False
        ).run()
        assert (
            dumped.metrics.measured_throughput
            < collected.metrics.measured_throughput
        )

    def test_functional_results_identical(self):
        tiny = STAPParams.tiny()
        scenario = RadarScenario(
            clutter_to_noise_db=40.0,
            targets=(TargetTruth(20, 0.25, 0.0, 5.0),),
            seed=11,
        )
        reference = SequentialSTAP(tiny).process_stream(
            CPIStream(tiny, scenario).take(4)
        )
        result = STAPPipeline(
            tiny,
            Assignment(3, 2, 2, 2, 2, 2, 2, name="dump"),
            mode="functional",
            stream=CPIStream(tiny, scenario),
            num_cpis=4,
            collect_training=False,
        ).run()
        for a, b in zip(reference, result.reports):
            assert a.same_detections(b)


class TestReplication:
    def test_aggregate_throughput_scales(self, params, assignment):
        single = ReplicatedSTAPPipeline(params, assignment, 1, num_cpis=12).run()
        double = ReplicatedSTAPPipeline(params, assignment, 2, num_cpis=24).run()
        ratio = double.aggregate_throughput / single.aggregate_throughput
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_latency_unchanged_by_replication(self, params, assignment):
        single = ReplicatedSTAPPipeline(
            params, assignment, 1, num_cpis=12
        ).run_measured()
        double = ReplicatedSTAPPipeline(
            params, assignment, 2, num_cpis=24
        ).run_measured()
        assert double.latency == pytest.approx(single.latency, rel=0.1)

    def test_per_replica_metrics_available(self, params, assignment):
        result = ReplicatedSTAPPipeline(params, assignment, 2, num_cpis=16).run()
        assert len(result.per_replica) == 2
        for metrics in result.per_replica:
            assert metrics.measured_throughput > 0

    def test_runs_on_the_lowered_transfer_path(self, params, assignment, monkeypatch):
        """The replicated pipeline runs on the default core, so no message
        takes the reference network's transfer path, under ENDPOINT or
        LINKS contention; the numbers are the reference engine's,
        repr-exact."""

        def refuse(*_args):
            raise AssertionError("replicated run left the slot-record path")

        monkeypatch.setattr(Network, "_begin_transfer", refuse)
        for contention, throughput, latency in [
            ("endpoint", "101.20367815736489", "0.06765075675841323"),
            ("links", "101.20367815736495", "0.06822592715841323"),
        ]:
            result = ReplicatedSTAPPipeline(
                params, assignment, 2, num_cpis=8, contention=contention
            ).run()
            assert repr(result.aggregate_throughput) == throughput
            assert repr(result.latency) == latency

    def test_node_budget_enforced(self, params, assignment):
        # 2 x 24 = 48 nodes cannot fit a 25-node machine.
        from repro import ruggedized_paragon
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            ReplicatedSTAPPipeline(
                params, assignment, 2, machine=ruggedized_paragon(), num_cpis=8
            )

    def test_invalid_args_rejected(self, params, assignment):
        with pytest.raises(ConfigurationError):
            ReplicatedSTAPPipeline(params, assignment, 0, num_cpis=8)
        with pytest.raises(ConfigurationError):
            ReplicatedSTAPPipeline(params, assignment, 3, num_cpis=8)

    def test_summary_renders(self, params, assignment):
        result = ReplicatedSTAPPipeline(params, assignment, 1, num_cpis=8).run()
        assert "pipelines" in result.summary()
        assert result.total_nodes == assignment.total_nodes
