"""Task 2: hard weight computation.

Each of the P2 processors owns a block of (range segment, hard Doppler bin)
*units* — one recursive QR per unit, ``6 * N_hard`` units in all.  This
finer-than-bins decomposition is what lets the paper assign 112 nodes to a
task with only 56 hard bins (Table 7, case 1).  Per CPI a rank assembles
the freshly collected training rows of its units; a
:class:`~repro.stap.hard_weights.HardWeightComputer` over those units —
the reference's and the real runtime's code — absorbs them with
exponential forgetting and re-solves the constrained least-squares
problem.  The weight vectors go to the hard beamforming ranks for the next
visit to this azimuth — TD(2,4) of Figure 4.  This is the most
computationally demanding task of the pipeline (Table 1), which is why the
paper's assignments give it roughly half of all nodes.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import MODELED, PipelineTask
from repro.stap.flops import hard_weight_flops
from repro.stap.hard_weights import HardWeightComputer


class HardWeightTask(PipelineTask):
    name = "hard_weight"
    kernel = "hard_weight"
    # Weights feed CPI i + weight_delay (TD(2,4)): off the latency path.
    latency_path = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        partition = self.layout.hard_weight_units
        self.units = partition.units_of(self.local_rank)
        _bin_pos, unit_segments = partition.decompose(self.units)
        self.unit_bins = partition.bins_of_units(self.units)
        if self.functional:
            self.computer = HardWeightComputer(
                self.plan, self.unit_bins, workspace=self.workspace
            )
            # Training assembly buffer, reused across CPIs (the computer
            # absorbs it before compute returns): the incoming segments
            # write the same row positions every iteration, so no stale
            # sample survives, and unwritten pad rows keep their zeros.
            self._training_buf = np.zeros(
                (
                    len(self.units),
                    self.params.hard_train_samples,
                    self.params.num_staggered_channels,
                ),
                dtype=complex,
            )
        plan = self.layout.plan("dop_to_hard_weight")
        self._recv_msgs = {m.src: m for m in plan.recvs_of(self.local_rank)}
        # Map (segment, absolute bin) -> local unit index, for assembly.
        self._unit_index = {
            (int(seg), int(bin_id)): idx
            for idx, (seg, bin_id) in enumerate(zip(unit_segments, self.unit_bins))
        }

    # -- framework hooks ----------------------------------------------------------
    def local_flops(self, cpi: int) -> float:
        total_units = self.params.num_hard_doppler * self.params.num_segments
        return hard_weight_flops(self.params) * len(self.units) / total_units

    def send_tag_cpi(self, edge_name: str, cpi: int) -> int:
        return cpi + self.weight_delay

    # -- work --------------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        plan = self.layout.plan("hard_weight_to_bf")
        target_cpi = cpi + self.weight_delay
        wants_send = target_cpi < self.num_cpis
        if not self.functional:
            if not wants_send:
                return []
            messages = [(m, MODELED) for m in plan.sends_of(self.local_rank)]
            return [("hard_weight_to_bf", messages)] if messages else []

        azimuth = cpi % self.weight_delay
        training = self._training_buf
        for src, parts in received.get("dop_to_hard_weight", {}).items():
            descriptor = self._recv_msgs[src]
            for segment in descriptor.segments:
                block = parts[segment.segment]  # (|bins|, rows, 2J)
                for bin_idx, bin_id in enumerate(segment.bin_ids):
                    unit = self._unit_index[(segment.segment, int(bin_id))]
                    training[unit][segment.row_positions, :] = block[bin_idx]
        self.computer.update(training, azimuth)

        if not wants_send:
            return []
        # ``weights`` is a fresh stack each CPI, so in-flight send payloads
        # may safely alias it.
        weights = self.computer.compute_weights(azimuth)
        messages = [
            (m, weights[m.src_pos]) for m in plan.sends_of(self.local_rank)
        ]
        return [("hard_weight_to_bf", messages)] if messages else []
