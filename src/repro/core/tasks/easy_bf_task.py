"""Task 3: easy beamforming.

Each of the P3 processors owns a block of easy Doppler bins.  Per CPI it
assembles (a) the first-window Doppler data for its bins from every Doppler
processor — the K-axis all-to-all of Figure 8 — and (b) the weight vectors
from the easy weight ranks (same bin partitioning, so "no data collection
or reorganization": contiguous blocks).  It then beamforms its block with
:func:`repro.stap.beamform.beamform_easy` — the reference's and the real
runtime's code — and forwards its rows to pulse compression.

The first visit to an azimuth has no trained weights yet (TD(1,3) points
backward in time); the task uses the plan's cold-start weights
(:meth:`repro.stap.plan.KernelPlan.cold_easy_weights`), as every path does.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import MODELED, PipelineTask
from repro.stap.beamform import beamform_easy
from repro.stap.flops import easy_beamform_flops


class EasyBeamformTask(PipelineTask):
    name = "easy_beamform"
    kernel = "easy_beamform"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bins = self.layout.easy_bf_bins.ids_of(self.local_rank)
        dop_plan = self.layout.plan("dop_to_easy_bf")
        self._dop_msgs = {m.src: m for m in dop_plan.recvs_of(self.local_rank)}
        w_plan = self.layout.plan("easy_weight_to_bf")
        self._w_msgs = {m.src: m for m in w_plan.recvs_of(self.local_rank)}
        if self.functional:
            self._cold_weights = self.plan.cold_easy_weights(self.bins)
            # Input assembly buffers, reused across CPIs: every iteration
            # writes the same (static) message extents, so stale data can
            # never leak, and unwritten pad cells keep their initial zeros.
            params = self.params
            J, K, M = params.num_channels, params.num_ranges, params.num_beams
            self._dop_buf = np.zeros((len(self.bins), J, K), dtype=complex)
            self._w_buf = np.empty((len(self.bins), J, M), dtype=complex)

    # -- framework hooks ----------------------------------------------------------
    def recv_edges(self, cpi: int) -> list[str]:
        edges = ["dop_to_easy_bf"]
        if cpi >= self.weight_delay:
            edges.append("easy_weight_to_bf")
        return edges

    def local_flops(self, cpi: int) -> float:
        share = len(self.bins) / self.params.num_easy_doppler
        return easy_beamform_flops(self.params) * share

    # -- work --------------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        plan = self.layout.plan("easy_bf_to_pc")
        if not self.functional:
            messages = [(m, MODELED) for m in plan.sends_of(self.local_rank)]
            return [("easy_bf_to_pc", messages)] if messages else []

        dop = self._dop_buf
        for src, payload in received.get("dop_to_easy_bf", {}).items():
            descriptor = self._dop_msgs[src]
            dop[:, :, descriptor.k_start : descriptor.k_stop] = payload

        if cpi < self.weight_delay:
            weights = self._cold_weights
        else:
            weights = self._w_buf
            for src, payload in received.get("easy_weight_to_bf", {}).items():
                descriptor = self._w_msgs[src]
                weights[descriptor.dst_pos] = payload

        # ``beamformed`` is freshly allocated each CPI (no workspace), so
        # the send payloads may alias it: in-flight slices are never
        # clobbered.
        beamformed = beamform_easy(dop, weights, self.params)
        messages = [
            (m, beamformed[m.src_pos]) for m in plan.sends_of(self.local_rank)
        ]
        return [("easy_bf_to_pc", messages)] if messages else []
