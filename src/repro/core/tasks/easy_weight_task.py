"""Task 1: easy weight computation.

Each of the P1 processors owns a block of easy Doppler bins (Figure 7) and
assembles the training rows collected by every Doppler processor.  An
:class:`~repro.stap.easy_weights.EasyWeightComputer` over its bins — the
reference's and the real runtime's code — keeps the three-CPI sliding
training history per azimuth and solves the beam-constrained
least-squares problem.  The resulting weight vectors are sent to the easy
beamforming ranks *for the next visit to this azimuth* — the temporal
dependency TD(1,3) of Figure 4.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import MODELED, PipelineTask
from repro.stap.easy_weights import EasyWeightComputer
from repro.stap.flops import easy_weight_flops


class EasyWeightTask(PipelineTask):
    name = "easy_weight"
    kernel = "easy_weight"
    # Weights feed CPI i + weight_delay (TD(1,3)): off the latency path.
    latency_path = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        partition = self.layout.easy_weight_bins
        self.bins = partition.ids_of(self.local_rank)
        if self.functional:
            self.computer = EasyWeightComputer(
                self.plan, self.bins, workspace=self.workspace
            )
        # Per-source message descriptors for assembly.
        plan = self.layout.plan("dop_to_easy_weight")
        self._recv_msgs = {m.src: m for m in plan.recvs_of(self.local_rank)}

    # -- framework hooks ----------------------------------------------------------
    def local_flops(self, cpi: int) -> float:
        share = len(self.bins) / self.params.num_easy_doppler
        return easy_weight_flops(self.params) * share

    def send_tag_cpi(self, edge_name: str, cpi: int) -> int:
        # Weights trained on CPI i are applied to CPI i + revisit period.
        return cpi + self.weight_delay

    # -- work --------------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        plan = self.layout.plan("easy_weight_to_bf")
        target_cpi = cpi + self.weight_delay
        wants_send = target_cpi < self.num_cpis
        if not self.functional:
            if not wants_send:
                return []
            messages = [(m, MODELED) for m in plan.sends_of(self.local_rank)]
            return [("easy_weight_to_bf", messages)] if messages else []

        params = self.params
        azimuth = cpi % self.weight_delay
        # NOT a reusable buffer: the computer keeps each CPI's training
        # block in its sliding history, so it must be a fresh allocation.
        training = np.zeros(
            (len(self.bins), params.easy_train_per_cpi, params.num_channels),
            dtype=complex,
        )
        for src, parts in received.get("dop_to_easy_weight", {}).items():
            descriptor = self._recv_msgs[src]
            (segment,) = descriptor.segments
            training[:, segment.row_positions, :] = parts[segment.segment]
        self.computer.push_training(training, azimuth)

        if not wants_send:
            return []
        # ``weights`` is a fresh stack each CPI, so in-flight send payloads
        # may safely alias it.
        weights = self.computer.compute_weights(azimuth)
        messages = [
            (m, weights[m.src_pos]) for m in plan.sends_of(self.local_rank)
        ]
        return [("easy_weight_to_bf", messages)] if messages else []
