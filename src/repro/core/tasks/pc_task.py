"""Task 5: pulse compression.

Each of the P5 processors owns a block of *all* Doppler bins (easy and hard
interleaved in FFT-bin order, Figure 9).  Because beamforming also
partitions along bins, the incoming edge needs no reorganization — each
easy/hard BF rank ships the (possibly empty) intersection of its bins with
this rank's block.  Per (bin, beam) row: K-point FFT, point-wise multiply
with the replica response, inverse FFT, magnitude-square to the real power
domain.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import MODELED, PipelineTask
from repro.stap.flops import pulse_compression_flops
from repro.stap.pulse_compression import pulse_compress_block


class PulseCompressionTask(PipelineTask):
    name = "pulse_compression"
    kernel = "pulse_compression"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bins = self.layout.pc_bins.ids_of(self.local_rank)
        if self.functional:
            # Input assembly buffer, reused across CPIs: the incoming
            # easy/hard messages tile the bin axis identically every
            # iteration, so no stale row survives a CPI.
            self._beams_buf = np.zeros(
                (len(self.bins), self.params.num_beams, self.params.num_ranges),
                dtype=complex,
            )
        self._easy_msgs = {
            m.src: m
            for m in self.layout.plan("easy_bf_to_pc").recvs_of(self.local_rank)
        }
        self._hard_msgs = {
            m.src: m
            for m in self.layout.plan("hard_bf_to_pc").recvs_of(self.local_rank)
        }

    # -- framework hooks ----------------------------------------------------------
    def local_flops(self, cpi: int) -> float:
        share = len(self.bins) / self.params.num_doppler
        return pulse_compression_flops(self.params) * share

    # -- work --------------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        plan = self.layout.plan("pc_to_cfar")
        if not self.functional:
            messages = [(m, MODELED) for m in plan.sends_of(self.local_rank)]
            return [("pc_to_cfar", messages)] if messages else []

        beams = self._beams_buf
        for src, payload in received.get("easy_bf_to_pc", {}).items():
            beams[self._easy_msgs[src].dst_pos] = payload
        for src, payload in received.get("hard_bf_to_pc", {}).items():
            beams[self._hard_msgs[src].dst_pos] = payload

        # ``power`` is a fresh cube each CPI (pulse_compress_block allocates
        # its output without a workspace), so in-flight send payloads may
        # safely alias it.
        power = pulse_compress_block(beams, self.params, self.plan.replica_freq)
        messages = [
            (m, power[m.src_pos]) for m in plan.sends_of(self.local_rank)
        ]
        return [("pc_to_cfar", messages)] if messages else []
