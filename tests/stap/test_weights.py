"""Easy and hard weight computers: history handling, adaptivity, recursion."""

import numpy as np
import pytest

from repro import CPIStream
from repro.errors import ConfigurationError
from repro.radar import STAPParams, RadarScenario, generate_cpi
from repro.stap.doppler import doppler_filter
from repro.stap.easy_weights import (
    EasyWeightComputer,
    compute_easy_weights,
    extract_easy_training,
    select_range_samples,
)
from repro.stap.hard_weights import HardWeightComputer, extract_hard_training
from repro.stap.lsq import quiescent_weights
from repro.stap.plan import KernelPlan, default_plan
from repro.stap.reference import default_steering

from tests.core.test_golden_functional import golden_scenario


@pytest.fixture
def params():
    return STAPParams.tiny()


@pytest.fixture
def steering(params):
    return default_steering(params)


@pytest.fixture
def plan(params, steering):
    return KernelPlan.build(params, steering)


def staggered_cube(params, seed=0, cnr=35.0):
    scenario = RadarScenario(clutter_to_noise_db=cnr, targets=(), seed=seed)
    return doppler_filter(generate_cpi(params, scenario, seed))


class TestSelectRangeSamples:
    def test_count_and_bounds(self):
        sel = select_range_samples(100, 10)
        assert len(sel) == 10
        assert sel.min() >= 0 and sel.max() < 100

    def test_evenly_spaced(self):
        sel = select_range_samples(100, 10)
        assert np.all(np.diff(sel) == 10)

    def test_all_cells(self):
        assert np.array_equal(select_range_samples(5, 5), np.arange(5))

    def test_too_many_rejected(self):
        with pytest.raises(ConfigurationError):
            select_range_samples(5, 6)


class TestEasyTraining:
    def test_shape(self, params):
        block = extract_easy_training(staggered_cube(params), params)
        assert block.shape == (
            params.num_easy_doppler,
            params.easy_train_per_cpi,
            params.num_channels,
        )

    def test_rows_are_conjugated_snapshots(self, params):
        stag = staggered_cube(params)
        block = extract_easy_training(stag, params)
        sel = select_range_samples(params.num_ranges, params.easy_train_per_cpi)
        bin0 = params.easy_bins[0]
        assert np.allclose(block[0, 0], np.conj(stag[bin0, : params.num_channels, sel[0]]))


class TestEasyWeightComputer:
    def test_quiescent_before_history(self, params, steering, plan):
        computer = EasyWeightComputer(plan)
        w = computer.compute_weights()
        expected = quiescent_weights(steering)
        assert np.allclose(w, expected[None, :, :])

    def test_history_capped_at_three(self, params, plan):
        computer = EasyWeightComputer(plan)
        for i in range(5):
            computer.push_training(extract_easy_training(staggered_cube(params, i), params))
        assert computer.history_depth() == 3

    def test_azimuth_histories_independent(self, params, plan):
        computer = EasyWeightComputer(plan)
        computer.push_training(extract_easy_training(staggered_cube(params, 0), params), azimuth=0)
        assert computer.history_depth(azimuth=0) == 1
        assert computer.history_depth(azimuth=1) == 0

    def test_weights_unit_norm(self, params, plan):
        computer = EasyWeightComputer(plan)
        computer.push_training(extract_easy_training(staggered_cube(params), params))
        w = computer.compute_weights()
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0)

    def test_adaptive_weights_cut_clutter_output(self, params, steering, plan):
        """The whole point: output clutter power with adaptive weights must
        be far below the quiescent beamformer's."""
        computer = EasyWeightComputer(plan)
        training_cubes = [staggered_cube(params, seed) for seed in range(3)]
        for stag in training_cubes:
            computer.push_training(extract_easy_training(stag, params))
        adaptive = computer.compute_weights()
        quiescent = np.broadcast_to(
            quiescent_weights(steering)[None], adaptive.shape
        )
        test_cube = staggered_cube(params, seed=99)  # fresh clutter look
        easy = test_cube[params.easy_bins][:, : params.num_channels, :]

        def output_power(w):
            y = np.einsum("njm,njk->nmk", np.conj(w), easy)
            return float(np.mean(np.abs(y) ** 2))

        assert output_power(adaptive) < 0.15 * output_power(quiescent)

    def test_bad_training_shape_rejected(self, params, plan):
        computer = EasyWeightComputer(plan)
        with pytest.raises(ConfigurationError):
            computer.push_training(np.zeros((1, 2, 3)))

    def test_bad_steering_shape_rejected(self, params):
        with pytest.raises(ConfigurationError):
            KernelPlan.build(params, np.zeros((3, 3)))

    def test_compute_easy_weights_validates(self, steering):
        with pytest.raises(ConfigurationError):
            compute_easy_weights(np.zeros((4, 4)), steering, 0.5)


class TestEasyTrainingLayout:
    def test_block_fed_c_ordered_training_equals_the_full_computer(self):
        """An easy weight rank assembles C-ordered training blocks of its
        own bins.  At paper scale a computer over easy bins 0-17 fed such
        blocks gets the full computer's weights for those bins, bit for
        bit, after each of three CPIs."""
        params = STAPParams.paper()
        plan = default_plan(params)
        own = slice(0, 18)
        full = EasyWeightComputer(plan)
        block = EasyWeightComputer(plan, params.easy_bins[own])
        for cube in CPIStream(params, golden_scenario()).take(3):
            staggered = doppler_filter(cube, window=plan.doppler_window)
            training = extract_easy_training(staggered, params)
            full.push_training(training)
            block.push_training(np.ascontiguousarray(training[own]))
            assert np.array_equal(block.compute_weights(),
                                  full.compute_weights()[own])


class TestHardTraining:
    def test_shape(self, params):
        block = extract_hard_training(staggered_cube(params), params)
        assert block.shape == (
            params.num_segments,
            params.num_hard_doppler,
            params.hard_train_samples,
            params.num_staggered_channels,
        )

    def test_short_segment_zero_padded(self):
        p = STAPParams.tiny().with_overrides(
            range_segment_boundaries=(0, 4, 48), hard_train_samples=10
        )
        block = extract_hard_training(staggered_cube(p), p)
        # First segment has only 4 cells; rows 4..9 must be zero.
        assert np.all(block[0, :, 4:, :] == 0)
        assert np.any(block[0, :, :4, :] != 0)


class TestHardWeightComputer:
    def test_quiescent_is_coherent_staggered_combiner(self, params, plan):
        computer = HardWeightComputer(plan)
        w = computer.compute_weights()
        J = params.num_channels
        phases = np.exp(
            2j * np.pi * params.hard_bins * params.stagger / params.num_doppler
        )
        for idx in range(params.num_hard_doppler):
            ratio = w[0, idx, J:, 0] / w[0, idx, :J, 0]
            assert np.allclose(ratio, phases[idx])

    def test_has_history_flag(self, params, plan):
        computer = HardWeightComputer(plan)
        assert not computer.has_history()
        computer.update(extract_hard_training(staggered_cube(params), params))
        assert computer.has_history()

    def test_weights_unit_norm_after_update(self, params, plan):
        computer = HardWeightComputer(plan)
        computer.update(extract_hard_training(staggered_cube(params), params))
        w = computer.compute_weights()
        assert np.allclose(np.linalg.norm(w, axis=2), 1.0)

    def test_adaptive_weights_cut_clutter_output(self, params, plan):
        computer = HardWeightComputer(plan)
        for seed in range(3):
            computer.update(extract_hard_training(staggered_cube(params, seed), params))
        adaptive = computer.compute_weights()
        quiescent = HardWeightComputer(plan).compute_weights()
        test_cube = staggered_cube(params, seed=99)
        hard = test_cube[params.hard_bins]

        def output_power(w):
            total = 0.0
            for seg_idx, seg in enumerate(params.segment_slices):
                y = np.einsum("njm,njk->nmk", np.conj(w[seg_idx]), hard[:, :, seg])
                total += float(np.sum(np.abs(y) ** 2))
            return total

        assert output_power(adaptive) < 0.5 * output_power(quiescent)

    def test_forgetting_tracks_changing_clutter(self, params, plan):
        """After many updates from clutter realization A then one from B,
        recent data must dominate (forgetting factor 0.6)."""
        computer = HardWeightComputer(plan)
        for seed in range(4):
            computer.update(extract_hard_training(staggered_cube(params, seed), params))
        state_after_a = computer._r_state[0].copy()
        computer.update(extract_hard_training(staggered_cube(params, 100), params))
        # 0.6^2 = 0.36: old information decayed, new injected.
        assert not np.allclose(state_after_a, computer._r_state[0])

    def test_bad_training_shape_rejected(self, params, plan):
        computer = HardWeightComputer(plan)
        with pytest.raises(ConfigurationError):
            computer.update(np.zeros((1, 2, 3, 4)))
