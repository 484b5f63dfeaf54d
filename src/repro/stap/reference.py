"""Sequential reference implementation of the full STAP chain.

This is the "golden" single-process version against which the parallel
pipeline is verified.  It reproduces the pipeline's *temporal* semantics
exactly (Section 5): the weights applied to CPI *i* are computed from the
Doppler-filtered data of CPI *i-1* and earlier looks in the same azimuth —
"the filtered CPI data sent to the beamforming tasks do not wait for the
completion of its weight computation but rather for the completion of the
weight computation of the previous CPI."

Per-CPI flow::

    raw cube --Doppler filter--> staggered cube
        --beamform with *pending* weights--> beams
        --pulse compression--> power
        --CFAR--> detection report
    then: train easy/hard weight computers on THIS CPI's staggered data,
    producing the pending weights for the next visit to this azimuth.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.radar.datacube import CPIDataCube
from repro.radar.geometry import beam_angles, steering_matrix
from repro.radar.parameters import STAPParams
from repro.stap.beamform import assemble_beamformed, beamform_easy, beamform_hard
from repro.stap.cfar import cfar_detect
from repro.stap.detection import DetectionReport
from repro.stap.doppler import doppler_filter
from repro.stap.easy_weights import EasyWeightComputer, extract_easy_training
from repro.stap.hard_weights import HardWeightComputer, extract_hard_training
from repro.stap.pulse_compression import pulse_compress


def default_steering(params: STAPParams) -> np.ndarray:
    """(J, M) steering matrix: beams spread across the transmit region."""
    return steering_matrix(params.num_channels, beam_angles(params.num_beams))


class SequentialSTAP:
    """Process a CPI stream sequentially, maintaining weight state."""

    def __init__(
        self,
        params: STAPParams,
        steering: Optional[np.ndarray] = None,
        plan=None,
    ):
        """``plan``: optional prebuilt :class:`~repro.stap.plan.KernelPlan`
        (for sharing with a pipeline under verification); built here when
        absent.  Its steering matrix wins over the ``steering`` argument."""
        from repro.stap.plan import KernelPlan

        self.params = params
        if plan is None:
            steering = (
                default_steering(params) if steering is None else np.asarray(steering)
            )
            plan = KernelPlan.build(params, steering)
        self.plan = plan
        self.steering = plan.steering
        self.easy = EasyWeightComputer(params, self.steering)
        self.hard = HardWeightComputer(params, self.steering)
        # Pending weights per azimuth (computed after the previous visit).
        self._easy_weights: Dict[int, np.ndarray] = {}
        self._hard_weights: Dict[int, np.ndarray] = {}
        self._replica = plan.replica_freq

    # -- per-CPI processing -----------------------------------------------------
    def process(self, cube: CPIDataCube) -> DetectionReport:
        """Process one CPI; updates weight state for the next visit."""
        params = self.params
        azimuth = cube.azimuth
        staggered = doppler_filter(cube, window=self.plan.doppler_window)

        easy_w = self._easy_weights.get(azimuth)
        if easy_w is None:
            easy_w = self.easy.compute_weights(azimuth)  # quiescent
        hard_w = self._hard_weights.get(azimuth)
        if hard_w is None:
            hard_w = self.hard.compute_weights(azimuth)  # quiescent

        easy_in = staggered[params.easy_bins, : params.num_channels, :]
        hard_in = staggered[params.hard_bins]
        easy_y = beamform_easy(easy_in, easy_w, params)
        hard_y = beamform_hard(hard_in, hard_w, params)
        beams = assemble_beamformed(easy_y, hard_y, params)

        power = pulse_compress(beams, params, self._replica)
        detections = cfar_detect(power, params, factor=self.plan.cfar_factor)

        # Train on this CPI for the *next* visit to this azimuth.
        self.easy.push_training(extract_easy_training(staggered, params), azimuth)
        self.hard.update(extract_hard_training(staggered, params), azimuth)
        self._easy_weights[azimuth] = self.easy.compute_weights(azimuth)
        self._hard_weights[azimuth] = self.hard.compute_weights(azimuth)

        return DetectionReport(cpi_index=cube.cpi_index, detections=tuple(detections))

    def process_stream(self, cubes: Iterable[CPIDataCube]) -> list[DetectionReport]:
        """Process CPIs in order; returns one report per CPI."""
        return [self.process(cube) for cube in cubes]

    # -- introspection (used by the pipeline's weight tasks and by tests) -------
    def pending_easy_weights(self, azimuth: int = 0) -> Optional[np.ndarray]:
        return self._easy_weights.get(azimuth)

    def pending_hard_weights(self, azimuth: int = 0) -> Optional[np.ndarray]:
        return self._hard_weights.get(azimuth)
