"""SINR metrics, including end-to-end jammer nulling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radar import (
    JammerTruth,
    RadarScenario,
    STAPParams,
    generate_cpi,
    spatial_steering,
)
from repro.stap.doppler import doppler_filter
from repro.stap.easy_weights import EasyWeightComputer, extract_easy_training
from repro.stap.lsq import quiescent_weights
from repro.stap.plan import KernelPlan
from repro.stap.reference import default_steering
from repro.stap.sinr import (
    cancellation_ratio_db,
    output_power,
    signal_gain,
    sinr,
    sinr_improvement_db,
)


@pytest.fixture
def rng():
    return np.random.default_rng(8)


class TestBasics:
    def test_output_power_of_unit_weight_on_white_data(self, rng):
        snaps = (rng.standard_normal((4000, 6)) + 1j * rng.standard_normal((4000, 6)))
        w = np.zeros(6, dtype=complex)
        w[0] = 1.0
        assert output_power(w, snaps) == pytest.approx(2.0, rel=0.1)

    def test_signal_gain_matched(self):
        s = spatial_steering(8, 12.0) * np.sqrt(8)
        w = s / np.linalg.norm(s)
        assert signal_gain(w, s) == pytest.approx(8.0)

    def test_sinr_decomposition(self, rng):
        s = spatial_steering(8, 0.0) * np.sqrt(8)
        w = s / np.linalg.norm(s)
        no_interference = np.zeros((10, 8), dtype=complex)
        # Signal 8, interference 0, noise ||w||^2 = 1 -> SINR 8.
        assert sinr(w, s, no_interference, noise_power=1.0) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            output_power(np.ones(3), np.ones((5, 4)))
        with pytest.raises(ConfigurationError):
            signal_gain(np.ones(3), np.ones(4))
        with pytest.raises(ConfigurationError):
            sinr(np.ones(3), np.ones(3), np.ones((2, 3)), noise_power=0.0)


class TestJammerNulling:
    """A barrage jammer is spatially coherent across all Doppler bins, so
    the easy-bin adaptive weights must null it — a different interference
    type than the clutter ridge, exercising the same machinery."""

    @pytest.fixture
    def params(self):
        return STAPParams.tiny()

    def test_easy_weights_null_jammer(self, params):
        jammer = JammerTruth(angle_deg=25.0, jnr_db=35.0)
        scenario = RadarScenario(
            clutter_to_noise_db=-300.0,
            num_clutter_patches=1,
            jammers=(jammer,),
            seed=5,
        )
        steering = default_steering(params)
        computer = EasyWeightComputer(KernelPlan.build(params, steering))
        for cpi in range(3):
            stag = doppler_filter(generate_cpi(params, scenario, cpi))
            computer.push_training(extract_easy_training(stag, params))
        adaptive = computer.compute_weights()

        jam_sig = spatial_steering(
            params.num_channels, jammer.angle_deg
        ) * np.sqrt(params.num_channels)
        quiescent = quiescent_weights(steering)
        # Per easy bin, beam 0: the jammer response must drop sharply.
        improvements = []
        for idx in range(params.num_easy_doppler):
            adapted_resp = signal_gain(adaptive[idx, :, 0], jam_sig)
            quiescent_resp = signal_gain(quiescent[:, 0], jam_sig)
            improvements.append(quiescent_resp / max(adapted_resp, 1e-30))
        median_null_depth_db = 10 * np.log10(np.median(improvements))
        assert median_null_depth_db > 15.0

    def test_sinr_improvement_against_clutter(self, params):
        scenario = RadarScenario(clutter_to_noise_db=40.0, targets=(), seed=5)
        steering = default_steering(params)
        computer = EasyWeightComputer(KernelPlan.build(params, steering))
        stags = []
        for cpi in range(3):
            stag = doppler_filter(generate_cpi(params, scenario, cpi))
            stags.append(stag)
            computer.push_training(extract_easy_training(stag, params))
        adaptive = computer.compute_weights()
        quiescent = quiescent_weights(steering)

        # Fresh raw clutter snapshots for an easy bin (output_power expects
        # unconjugated data; the conjugation lives in the training rows).
        test_stag = doppler_filter(generate_cpi(params, scenario, 9))
        bin_pos = params.num_easy_doppler // 2
        bin_id = params.easy_bins[bin_pos]
        snaps = test_stag[bin_id, : params.num_channels, :].T
        target = spatial_steering(params.num_channels, 0.0) * np.sqrt(
            params.num_channels
        )
        gain_db = sinr_improvement_db(
            adaptive[bin_pos, :, 0], quiescent[:, 0], target, snaps
        )
        assert gain_db > 5.0

    def test_cancellation_ratio_positive_for_adapted(self, params, rng):
        # Rank-1 interference: the adapted weight should cancel >20 dB.
        j = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        snaps = np.outer(
            30 * (rng.standard_normal(500) + 1j * rng.standard_normal(500)), j
        )
        snaps += 0.01 * (rng.standard_normal((500, 6)) + 1j * rng.standard_normal((500, 6)))
        from repro.stap.lsq import qr_factor, solve_constrained

        steering = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        # Train on conjugated rows; evaluate w^H x on the raw snapshots.
        adapted = solve_constrained(qr_factor(np.conj(snaps)), 0.5 * np.eye(6), steering)
        ratio = cancellation_ratio_db(adapted[:, 0], steering[:, 0], snaps)
        assert ratio > 20.0
