"""White-box tests of each task's ``compute`` in isolation.

The functional pipeline tests prove end-to-end equality with the reference;
these localize failures by driving one task's compute() with hand-built
inputs and checking its outputs against the stap-layer kernels directly.
"""

import numpy as np
import pytest

from repro import Assignment, CPIStream, RadarScenario, STAPParams
from repro.core.layout import PipelineLayout
from repro.core.task import Collector
from repro.core.tasks import (
    TASK_CLASSES,
    CfarTask,
    DopplerTask,
    EasyBeamformTask,
    HardBeamformTask,
    HardWeightTask,
    PulseCompressionTask,
)
from repro.errors import ConfigurationError
from repro.stap.beamform import beamform_hard
from repro.stap.cfar import cfar_detect
from repro.stap.doppler import doppler_filter, stagger_phase
from repro.stap.easy_weights import extract_easy_training
from repro.stap.hard_weights import HardWeightComputer, extract_hard_training
from repro.stap.lsq import quiescent_weights, quiescent_weights_stacked
from repro.stap.plan import default_plan
from repro.stap.pulse_compression import pulse_compress_block, replica_response
from repro.stap.reference import default_steering


@pytest.fixture(scope="module")
def params():
    return STAPParams.tiny()


@pytest.fixture(scope="module")
def layout(params):
    return PipelineLayout(params, Assignment(2, 1, 2, 1, 2, 1, 2, name="unit"))


@pytest.fixture(scope="module")
def cube(params):
    return CPIStream(params, RadarScenario.standard(seed=3).with_targets([])).cube(0)


def make_task(cls, layout, local_rank, **kwargs):
    return cls(
        layout,
        local_rank,
        num_cpis=3,
        collector=Collector(),
        functional=True,
        weight_delay=1,
        plan=default_plan(layout.params),
        **kwargs,
    )


def doppler_sends(layout, cube):
    """edge -> dst rank -> {src rank: payload}, from every Doppler rank."""
    out = {}
    for rank in range(layout.assignment.count_of("doppler")):
        task = make_task(DopplerTask, layout, rank, source=lambda i: cube)
        for edge, messages in task.compute(0, {}):
            for message, payload in messages:
                out.setdefault(edge, {}).setdefault(message.dst, {})[
                    message.src
                ] = payload
    return out


def test_functional_tasks_require_a_plan(layout):
    for name, cls in TASK_CLASSES.items():
        kwargs = {"source": lambda i: None} if name == "doppler" else {}
        with pytest.raises(ConfigurationError, match="KernelPlan"):
            cls(layout, 0, num_cpis=3, collector=Collector(), functional=True,
                **kwargs)


class TestDopplerTaskCompute:
    def test_bf_payloads_match_full_doppler_filter(self, params, layout, cube):
        full = doppler_filter(cube)
        for rank in range(2):
            task = make_task(DopplerTask, layout, rank, source=lambda i: cube)
            sends = dict(task.compute(0, {}))
            k_lo, k_hi = layout.k_partition.bounds(rank)
            for message, payload in sends["dop_to_easy_bf"]:
                bins = layout.easy_bf_bins.ids_of(message.dst)
                expected = full[bins][:, : params.num_channels, k_lo:k_hi]
                assert np.allclose(payload, expected)
            for message, payload in sends["dop_to_hard_bf"]:
                bins = layout.hard_bf_bins.ids_of(message.dst)
                assert np.allclose(payload, full[bins][:, :, k_lo:k_hi])

    def test_training_payloads_match_extractor(self, params, layout, cube):
        """Union of the per-rank easy-training payloads == the reference
        extractor's block (the conjugation included)."""
        full_training = extract_easy_training(doppler_filter(cube), params)
        plan = layout.plan("dop_to_easy_weight")
        assembled = np.zeros_like(full_training)
        for rank in range(2):
            task = make_task(DopplerTask, layout, rank, source=lambda i: cube)
            sends = dict(task.compute(0, {}))
            for message, payload in sends.get("dop_to_easy_weight", []):
                (segment,) = message.segments
                assembled[:, segment.row_positions, :] = payload[segment.segment]
        assert np.allclose(assembled, full_training)


class TestEasyBeamformCompute:
    def test_quiescent_first_iteration(self, params, layout, cube):
        steering = default_steering(params)
        task = make_task(EasyBeamformTask, layout, 0)
        full = doppler_filter(cube)
        received = {"dop_to_easy_bf": {}}
        for message in layout.plan("dop_to_easy_bf").recvs_of(0):
            bins = layout.easy_bf_bins.ids_of(0)
            received["dop_to_easy_bf"][message.src] = full[bins][
                :, : params.num_channels, message.k_start : message.k_stop
            ]
        sends = dict(task.compute(0, received))
        # Expected: quiescent beamforming of the full-K assembled block.
        bins = layout.easy_bf_bins.ids_of(0)
        dop = full[bins][:, : params.num_channels, :]
        w = quiescent_weights(steering)
        expected = np.einsum("jm,njk->nmk", np.conj(w), dop)
        for message, payload in sends["easy_bf_to_pc"]:
            assert np.allclose(payload, expected[message.src_pos])


class TestHardBeamformCompute:
    def test_quiescent_first_iteration(self, params, layout, cube):
        steering = default_steering(params)
        full = doppler_filter(cube)
        data = doppler_sends(layout, cube)["dop_to_hard_bf"]
        for rank in range(2):
            task = make_task(HardBeamformTask, layout, rank)
            sends = dict(task.compute(0, {"dop_to_hard_bf": data[rank]}))
            # Expected: coherent staggered quiescent weights, per segment.
            dop = full[task.bins]
            w = quiescent_weights_stacked(steering, stagger_phase(params, task.bins))
            expected = np.empty(
                (len(task.bins), params.num_beams, params.num_ranges), dtype=complex
            )
            for seg in params.segment_slices:
                expected[:, :, seg] = np.einsum(
                    "njm,njk->nmk", np.conj(w), dop[:, :, seg]
                )
            for message, payload in sends["hard_bf_to_pc"]:
                assert np.allclose(payload, expected[message.src_pos])

    def test_trained_rows_equal_full_extent_beamforming(self, params, layout, cube):
        """Each rank's rows are the full-cube beamformer's rows, bit for bit,
        once its per-unit weights arrive from the hard weight ranks."""
        rng = np.random.default_rng(4)
        S, n2, M = params.num_segments, params.num_staggered_channels, params.num_beams
        hard_pos = {int(b): pos for pos, b in enumerate(params.hard_bins)}
        weights = rng.standard_normal((S, params.num_hard_doppler, n2, M)) + 0j
        full = beamform_hard(doppler_filter(cube)[params.hard_bins], weights, params)
        data = doppler_sends(layout, cube)["dop_to_hard_bf"]
        for rank in range(2):
            task = make_task(HardBeamformTask, layout, rank)
            positions = np.array([hard_pos[int(b)] for b in task.bins])
            received = {
                "dop_to_hard_bf": data[rank],
                "hard_weight_to_bf": {
                    src: weights[m.segments, positions[m.dst_bin_pos]]
                    for src, m in task._w_msgs.items()
                },
            }
            sends = dict(task.compute(1, received))
            for message, payload in sends["hard_bf_to_pc"]:
                expected = full[positions[message.src_pos]]
                assert np.array_equal(payload, expected)


class TestHardWeightCompute:
    def test_zero_training_yields_plan_quiescent(self, params, layout, cube):
        """The zero-state rule every path shares: R factors that absorbed
        only zeros give the plan's quiescent weights, bit for bit."""
        plan = default_plan(params)
        sends = doppler_sends(layout, cube)["dop_to_hard_weight"]
        for rank in range(2):
            task = make_task(HardWeightTask, layout, rank)
            zeros = {
                src: {seg: np.zeros_like(block) for seg, block in parts.items()}
                for src, parts in sends[rank].items()
            }
            out = dict(task.compute(0, {"dop_to_hard_weight": zeros}))
            for message, payload in out["hard_weight_to_bf"]:
                expected = plan.hard_quiescent[task.unit_bins[message.src_pos]]
                assert np.array_equal(payload, expected)

    def test_units_equal_full_extent_computer(self, params, layout, cube):
        """A rank's weights are the reference computer's for its units."""
        reference = HardWeightComputer(default_plan(params))
        reference.update(extract_hard_training(doppler_filter(cube), params))
        full = reference.compute_weights()  # (S, N_hard, 2J, M)
        S = params.num_segments
        sends = doppler_sends(layout, cube)["dop_to_hard_weight"]
        for rank in range(2):
            task = make_task(HardWeightTask, layout, rank)
            out = dict(task.compute(0, {"dop_to_hard_weight": sends[rank]}))
            units = task.units
            expected = full[units % S, units // S]
            for message, payload in out["hard_weight_to_bf"]:
                assert np.array_equal(payload, expected[message.src_pos])


class TestPulseCompressionCompute:
    def test_power_matches_block_kernel(self, params, layout):
        rng = np.random.default_rng(0)
        task = make_task(PulseCompressionTask, layout, 0)
        nbins = len(task.bins)
        block = rng.standard_normal(
            (nbins, params.num_beams, params.num_ranges)
        ) + 1j * rng.standard_normal((nbins, params.num_beams, params.num_ranges))
        # Feed the block through the edge descriptors.
        received = {"easy_bf_to_pc": {}, "hard_bf_to_pc": {}}
        for edge, msgs in (
            ("easy_bf_to_pc", task._easy_msgs),
            ("hard_bf_to_pc", task._hard_msgs),
        ):
            for src, message in msgs.items():
                received[edge][src] = block[message.dst_pos]
        sends = dict(task.compute(0, received))
        expected = pulse_compress_block(block, params, replica_response(params))
        for message, payload in sends["pc_to_cfar"]:
            assert np.allclose(payload, expected[message.src_pos])


class TestCfarCompute:
    def test_detections_match_kernel_with_global_bins(self, params, layout):
        rng = np.random.default_rng(1)
        task = make_task(CfarTask, layout, 1)  # second rank: offset bins
        nbins = len(task.bins)
        power = rng.exponential(
            1.0, (nbins, params.num_beams, params.num_ranges)
        ).astype(params.real_dtype)
        power[0, 0, 25] = 1e7
        received = {"pc_to_cfar": {}}
        for src, message in task._pc_msgs.items():
            received["pc_to_cfar"][src] = power[message.dst_pos]
        task.compute(0, received)
        expected = cfar_detect(power, params, bin_ids=task.bins)
        assert task._latest_detections == expected
        # Doppler bins are globally numbered (rank 1 owns the upper half).
        assert min(d.doppler_bin for d in task._latest_detections) >= task.bins[0]
