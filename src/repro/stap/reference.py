"""Sequential reference: the full STAP chain in one process.

One CPI at a time, no message passing.  Each task's numerics live in its
:mod:`repro.stap` module — :func:`~repro.stap.doppler.doppler_filter`,
the weight computers, :func:`~repro.stap.beamform.beamform_easy` /
:func:`~repro.stap.beamform.beamform_hard`, pulse compression and CFAR —
and the simulator's tasks and the real runtime's workers call the same
code on their blocks.  This module only sequences the calls, which makes
it the check on what the parallel paths add: partitioning,
redistribution and routing.

It reproduces the pipeline's *temporal* semantics exactly (Section 5):
the weights applied to CPI *i* are computed from the Doppler-filtered
data of CPI *i-1* and earlier looks in the same azimuth — "the filtered
CPI data sent to the beamforming tasks do not wait for the completion of
its weight computation but rather for the completion of the weight
computation of the previous CPI."

Per-CPI flow::

    raw cube --Doppler filter--> staggered cube, then two branches:
      detection: beamform with the *pending* weights --> beams
                 --pulse compression--> power --CFAR--> detection report
      training:  train easy/hard weight computers on THIS CPI's staggered
                 data, producing the pending weights for the next visit
                 to this azimuth.

The branches share only read-only inputs, so — as in the paper, where the
weight tasks run beside beamforming, pulse compression and CFAR — they
run at once on the kernel threads (:func:`repro.stap.threads.run_beside`);
a one-thread process runs detection, then training.

Like the paper's tasks with their fixed ``inBuf``/``outBuf`` (Figure 10),
each branch reuses its per-CPI arrays: detection writes into one
:class:`~repro.stap.workspace.Workspace`, Doppler filtering and training
into another, so a steady-state CPI allocates no cube.  Only what
outlives the CPI is fresh: the easy training block the history keeps
and the weights for the next visit.
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
from repro.stap.threads import run_beside
from repro.stap.workspace import Workspace


def default_steering(params: STAPParams) -> np.ndarray:
    """(J, M) steering matrix: beams spread across the transmit region."""
    return steering_matrix(params.num_channels, beam_angles(params.num_beams))


class SequentialSTAP:
    """Process a CPI stream one CPI at a time, maintaining weight state.

    Within a CPI the detection and training branches overlap on the
    process's kernel threads; the reports and weights are the same bits
    for any thread budget.
    """

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
        # Per-CPI buffers, one workspace per branch: detection runs on a
        # pool thread while the calling thread filters and trains.
        self._detect_ws = Workspace()
        self._train_ws = Workspace()
        self.easy = EasyWeightComputer(plan, workspace=self._train_ws)
        self.hard = HardWeightComputer(plan, workspace=self._train_ws)
        # Pending weights per azimuth (computed after the previous visit).
        self._easy_weights: Dict[int, np.ndarray] = {}
        self._hard_weights: Dict[int, np.ndarray] = {}
        self._replica = plan.replica_freq

    # -- per-CPI processing -----------------------------------------------------
    def process(self, cube: CPIDataCube) -> DetectionReport:
        """Process one CPI; updates weight state for the next visit.

        Detection runs on the kernel pool beside training on the calling
        thread (one-thread processes: detection, then training).  If
        either branch raises, the call waits for the other to stop and
        re-raises; if both raise, training's exception wins.
        Training may then have replaced this azimuth's pending weights.
        """
        params = self.params
        azimuth = cube.azimuth
        # The calling thread's workspace: the staggered cube lives there
        # until the next CPI, so both branches read it.
        staggered = doppler_filter(
            cube, window=self.plan.doppler_window, workspace=self._train_ws
        )

        easy_w = self._easy_weights.get(azimuth)
        if easy_w is None:
            easy_w = self.easy.compute_weights(azimuth)  # quiescent
        hard_w = self._hard_weights.get(azimuth)
        if hard_w is None:
            hard_w = self.hard.compute_weights(azimuth)  # quiescent

        # Detection reads only easy_w/hard_w as captured here: training
        # replaces the dict entries with new arrays and never writes the
        # old ones in place.  Each branch writes only its own workspace.
        def detect():
            ws = self._detect_ws
            J = params.num_channels
            # The easy bins are the spectrum's centre block: a view, not a
            # gather.  The hard bins hug both edges, so they are gathered;
            # mode="wrap" indexes like fancy indexing, where the default
            # "raise" would gather into a scratch copy first.
            easy = slice(params.easy_bins[0], params.easy_bins[-1] + 1)
            hard_in = np.take(
                staggered, params.hard_bins, axis=0, mode="wrap",
                out=ws.array("reference.hard_in",
                             (params.num_hard_doppler,) + staggered.shape[1:],
                             staggered.dtype),
            )
            easy_y = beamform_easy(staggered[easy, :J, :], easy_w, params, ws)
            hard_y = beamform_hard(hard_in, hard_w, params, ws)
            beams = assemble_beamformed(easy_y, hard_y, params, ws)
            power = pulse_compress(beams, params, self._replica, ws)
            return cfar_detect(
                power, params, factor=self.plan.cfar_factor, workspace=ws
            )

        # Train on this CPI for the *next* visit to this azimuth.  The
        # calling thread trains, so the hard weight split can take both
        # cores once detection ends.  The easy block stays fresh: the
        # history keeps it.
        def train():
            self.easy.push_training(extract_easy_training(staggered, params), azimuth)
            self.hard.update(
                extract_hard_training(staggered, params, self._train_ws), azimuth
            )
            self._easy_weights[azimuth] = self.easy.compute_weights(azimuth)
            self._hard_weights[azimuth] = self.hard.compute_weights(azimuth)

        detections, _ = run_beside(detect, train)
        return DetectionReport(cpi_index=cube.cpi_index, detections=tuple(detections))

    def process_stream(self, cubes: Iterable[CPIDataCube]) -> list[DetectionReport]:
        """Process CPIs in order; returns one report per CPI."""
        return [self.process(cube) for cube in cubes]

    # -- introspection (used by the pipeline's weight tasks and by tests) -------
    def pending_easy_weights(self, azimuth: int = 0) -> Optional[np.ndarray]:
        return self._easy_weights.get(azimuth)

    def pending_hard_weights(self, azimuth: int = 0) -> Optional[np.ndarray]:
        return self._hard_weights.get(azimuth)
