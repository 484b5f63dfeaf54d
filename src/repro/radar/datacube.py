"""CPI data-cube generation.

A coherent processing interval (CPI) cube is complex data indexed
``[range_cell, channel, pulse]`` — K x J x N, C-contiguous, so the pulse
dimension has unit stride.  That mirrors the real system, where interface
boards corner-turned the cube "so that the CPI is unit stride along pulses.
This speeds the subsequent Doppler processing" (Section 2) — and it is why
the parallel Doppler task partitions along K (Figure 5).

Signal model (per sample, before any processing)::

    x[k, j, n] = clutter + jammers + targets + noise

* clutter: sum over angular patches; patch at angle theta has Doppler
  ``0.5 * beta * sin(theta)`` cycles/PRI and an independent complex-Gaussian
  amplitude per range cell (i.i.d. across CPIs — the independence the
  paper's exponential forgetting relies on);
* targets: transmit waveform laid down over ``waveform_length`` cells
  starting at the true range gate, with spatial/temporal phase ramps;
* jammers: spatially coherent, temporally/range white;
* noise: white complex Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.radar.geometry import spatial_steering, temporal_steering
from repro.radar.parameters import STAPParams
from repro.radar.scenario import RadarScenario, TargetTruth
from repro.radar.waveform import lfm_chirp
from repro.utils.rng import child_seed, rng_from_seed


@dataclass
class CPIDataCube:
    """One CPI: the raw cube plus identifying metadata and ground truth."""

    data: np.ndarray  # (K, J, N) complex
    cpi_index: int
    azimuth: int
    params: STAPParams
    truth: tuple[TargetTruth, ...] = ()

    def __post_init__(self):
        expected = (
            self.params.num_ranges,
            self.params.num_channels,
            self.params.num_pulses,
        )
        if self.data.shape != expected:
            raise ConfigurationError(
                f"CPI cube shape {self.data.shape} != expected {expected}"
            )

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


def _raw_spatial(params: STAPParams, scenario: RadarScenario, angle_deg: float):
    """Unnormalized (per-element magnitude 1) spatial phase ramp."""
    vec = spatial_steering(
        params.num_channels, angle_deg, scenario.element_spacing_wavelengths
    )
    return vec * np.sqrt(params.num_channels)


def _raw_temporal(params: STAPParams, normalized_doppler: float):
    """Unnormalized temporal phase ramp."""
    vec = temporal_steering(params.num_pulses, normalized_doppler)
    return vec * np.sqrt(params.num_pulses)


def generate_cpi(
    params: STAPParams,
    scenario: RadarScenario,
    cpi_index: int = 0,
    azimuth: int = 0,
) -> CPIDataCube:
    """Generate one CPI cube.

    Deterministic in ``(scenario.seed, cpi_index, azimuth)``; consecutive
    CPIs get independent clutter/noise realizations (decorrelated looks).
    """
    K, J, N = params.num_ranges, params.num_channels, params.num_pulses
    rng = rng_from_seed(child_seed(scenario.seed, "cpi", cpi_index, azimuth))

    # --- receiver noise: real draws, then imaginary -----------------------------
    sigma_n = np.sqrt(scenario.noise_power / 2.0)
    noise = rng.standard_normal((2, K, J, N))
    noise *= sigma_n

    # --- ground clutter ridge ---------------------------------------------------
    # The clutter product is written straight into the cube and the noise
    # added on top.  That gives the bytes of adding the noise into zeros
    # first, except where both terms are -0.0 (zero noise power): the
    # zeros turn that into +0.0, the product keeps whatever sign the BLAS
    # gives it.  So with zero clutter amplitudes, as with no clutter, the
    # noise is added into zeros and the product, signed zeros only, skipped.
    cube = None
    cnr = 10.0 ** (scenario.clutter_to_noise_db / 10.0)
    if cnr > 1e-12:
        P = scenario.num_clutter_patches
        angles = np.rad2deg(
            np.arcsin(np.linspace(-0.95, 0.95, P))
        )  # uniform in sin-space, matching uniform ground patches
        dopplers = 0.5 * scenario.clutter_velocity_ratio * np.sin(np.deg2rad(angles))
        dopplers = dopplers + scenario.clutter_intrinsic_spread * rng.standard_normal(P)
        # Per-patch space-time signature, (P, J*N).
        signature = np.empty((P, J * N), dtype=np.complex128)
        for i in range(P):
            s = _raw_spatial(params, scenario, angles[i])
            t = _raw_temporal(params, dopplers[i])
            signature[i] = np.outer(s, t).ravel()
        sigma_c = np.sqrt(scenario.noise_power * cnr / (2.0 * P))
        amplitudes = sigma_c * (
            rng.standard_normal((K, P)) + 1j * rng.standard_normal((K, P))
        )
        if sigma_c != 0.0:
            cube = np.empty((K, J, N), dtype=np.complex128)
            np.matmul(amplitudes, signature, out=cube.reshape(K, J * N))
    if cube is None:
        cube = np.zeros((K, J, N), dtype=np.complex128)
    cube.real += noise[0]
    cube.imag += noise[1]
    del noise

    # --- jammers ---------------------------------------------------------------
    for jam_idx, jammer in enumerate(scenario.jammers):
        jnr = 10.0 ** (jammer.jnr_db / 10.0)
        sigma_j = np.sqrt(scenario.noise_power * jnr / 2.0)
        s = _raw_spatial(params, scenario, jammer.angle_deg)
        jam_rng = rng_from_seed(
            child_seed(scenario.seed, "jam", jam_idx, cpi_index, azimuth)
        )
        waveform = sigma_j * (
            jam_rng.standard_normal((K, N)) + 1j * jam_rng.standard_normal((K, N))
        )
        cube += waveform[:, None, :] * s[None, :, None]

    # --- targets ------------------------------------------------------------------
    pulse = lfm_chirp(params.waveform_length)
    for tgt_idx, target in enumerate(scenario.targets):
        if not (0 <= target.range_cell < K):
            raise ConfigurationError(
                f"target range cell {target.range_cell} outside [0, {K})"
            )
        amp = np.sqrt(scenario.noise_power * 10.0 ** (target.snr_db / 10.0))
        # sqrt(L) restores per-sample amplitude after the unit-energy pulse.
        amp *= np.sqrt(params.waveform_length)
        tgt_rng = rng_from_seed(child_seed(scenario.seed, "tgt", tgt_idx, cpi_index))
        phase = np.exp(2j * np.pi * tgt_rng.uniform())
        s = _raw_spatial(params, scenario, target.angle_deg)
        t = _raw_temporal(params, target.normalized_doppler)
        extent = min(params.waveform_length, K - target.range_cell)
        contribution = (
            amp
            * phase
            * pulse[:extent, None, None]
            * s[None, :, None]
            * t[None, None, :]
        )
        cube[target.range_cell : target.range_cell + extent] += contribution

    return CPIDataCube(
        data=cube.astype(params.dtype, copy=False),
        cpi_index=cpi_index,
        azimuth=azimuth,
        params=params,
        truth=tuple(scenario.targets),
    )


class CPIStream:
    """An iterator of CPIs, cycling through azimuth beam positions.

    The flight experiments revisited five transmit-beam azimuths at 1-2 Hz
    (Section 3); weight training history is keyed by azimuth, so a cycle
    length > 1 exercises the revisit bookkeeping.
    """

    def __init__(
        self,
        params: STAPParams,
        scenario: Optional[RadarScenario] = None,
        azimuth_cycle: int = 1,
    ):
        if azimuth_cycle < 1:
            raise ConfigurationError(f"azimuth_cycle must be >= 1, got {azimuth_cycle}")
        self.params = params
        self.scenario = scenario or RadarScenario.standard()
        self.azimuth_cycle = azimuth_cycle

    def azimuth_of(self, cpi_index: int) -> int:
        return cpi_index % self.azimuth_cycle

    def cube(self, cpi_index: int) -> CPIDataCube:
        """The CPI with the given index (deterministic, random access)."""
        return generate_cpi(
            self.params, self.scenario, cpi_index, azimuth=self.azimuth_of(cpi_index)
        )

    def take(self, count: int, start: int = 0) -> list[CPIDataCube]:
        """Materialize ``count`` consecutive CPIs."""
        return [self.cube(i) for i in range(start, start + count)]

    def __iter__(self) -> Iterator[CPIDataCube]:
        index = 0
        while True:
            yield self.cube(index)
            index += 1
