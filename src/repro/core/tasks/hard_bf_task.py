"""Task 4: hard beamforming.

Like easy beamforming but over both staggered Doppler windows (2J channels)
and with *per-range-segment* weights: range segment ``s`` of the output row
uses segment ``s``'s weight vector — six (M x 2J)(2J x K_s) products per
hard bin.  The task assembles its block of hard bins and their
per-(segment, bin) weights, then calls
:func:`repro.stap.beamform.beamform_hard` — the reference's and the real
runtime's code.  The first visit to an azimuth uses the plan's cold-start
weights (:meth:`repro.stap.plan.KernelPlan.cold_hard_weights`).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import MODELED, PipelineTask
from repro.stap.beamform import beamform_hard
from repro.stap.doppler import staggered_dtype
from repro.stap.flops import hard_beamform_flops
from repro.stap.hard_weights import segment_grid


class HardBeamformTask(PipelineTask):
    name = "hard_beamform"
    kernel = "hard_beamform"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bins = self.layout.hard_bf_bins.ids_of(self.local_rank)
        dop_plan = self.layout.plan("dop_to_hard_bf")
        self._dop_msgs = {m.src: m for m in dop_plan.recvs_of(self.local_rank)}
        w_plan = self.layout.plan("hard_weight_to_bf")
        self._w_msgs = {m.src: m for m in w_plan.recvs_of(self.local_rank)}
        if self.functional:
            params = self.params
            self._cold_weights = self.plan.cold_hard_weights(
                segment_grid(params, self.bins)
            )
            # Input assembly buffers, reused across CPIs: every iteration
            # writes the same (static) message extents, so stale data can
            # never leak, and unwritten pad cells keep their initial zeros.
            self._dop_buf = np.zeros(
                (len(self.bins), params.num_staggered_channels, params.num_ranges),
                dtype=staggered_dtype(params),
            )
            self._w_buf = np.empty_like(self._cold_weights)

    # -- framework hooks ----------------------------------------------------------
    def recv_edges(self, cpi: int) -> list[str]:
        edges = ["dop_to_hard_bf"]
        if cpi >= self.weight_delay:
            edges.append("hard_weight_to_bf")
        return edges

    def local_flops(self, cpi: int) -> float:
        share = len(self.bins) / self.params.num_hard_doppler
        return hard_beamform_flops(self.params) * share

    # -- work --------------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        plan = self.layout.plan("hard_bf_to_pc")
        if not self.functional:
            messages = [(m, MODELED) for m in plan.sends_of(self.local_rank)]
            return [("hard_bf_to_pc", messages)] if messages else []

        dop = self._dop_buf
        for src, payload in received.get("dop_to_hard_bf", {}).items():
            descriptor = self._dop_msgs[src]
            dop[:, :, descriptor.k_start : descriptor.k_stop] = payload

        if cpi < self.weight_delay:
            weights = self._cold_weights
        else:
            weights = self._w_buf
            for src, payload in received.get("hard_weight_to_bf", {}).items():
                descriptor = self._w_msgs[src]
                # payload: (units, 2J, M) per-(segment, bin) weight vectors.
                weights[descriptor.segments, descriptor.dst_bin_pos] = payload

        # ``beamformed`` is freshly allocated each CPI (no workspace): the
        # send payloads below alias it while in flight under double
        # buffering.
        beamformed = beamform_hard(dop, weights, self.params)
        messages = [
            (m, beamformed[m.src_pos]) for m in plan.sends_of(self.local_rank)
        ]
        return [("hard_bf_to_pc", messages)] if messages else []
