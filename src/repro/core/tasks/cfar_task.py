"""Task 6: CFAR processing — the pipeline's output stage.

Each of the P6 processors owns a block of Doppler bins (same partitioning
as pulse compression, so no reorganization on the incoming edge) and runs
the sliding-window cell-averaging CFAR over its rows.  Detections — "a list
of targets at specified ranges, Doppler frequencies, and look directions" —
are delivered to the run collector, which timestamps report completion for
the throughput/latency measurements ("placing a timer at the end of the
last task", Section 7.3).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import PipelineTask
from repro.stap.cfar import cfar_detect
from repro.stap.flops import cfar_flops


class CfarTask(PipelineTask):
    name = "cfar"
    kernel = "cfar"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bins = self.layout.cfar_bins.ids_of(self.local_rank)
        self._pc_msgs = {
            m.src: m for m in self.layout.plan("pc_to_cfar").recvs_of(self.local_rank)
        }
        if self.functional:
            # Input assembly buffer, reused across CPIs: the incoming pulse
            # compression messages tile the bin axis identically every
            # iteration, so no stale row survives a CPI.
            self._power_buf = np.zeros(
                (len(self.bins), self.params.num_beams, self.params.num_ranges),
                dtype=self.params.real_dtype,
            )
        self._latest_detections: list = []

    # -- framework hooks ----------------------------------------------------------
    def local_flops(self, cpi: int) -> float:
        share = len(self.bins) / self.params.num_doppler
        return cfar_flops(self.params) * share

    def on_iteration_end(self, cpi: int, now: float) -> None:
        self.collector.record_report(cpi, self._latest_detections, now)
        self._latest_detections = []

    # -- work --------------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        if not self.functional:
            self._latest_detections = []
            return []
        power = self._power_buf
        for src, payload in received.get("pc_to_cfar", {}).items():
            power[self._pc_msgs[src].dst_pos] = payload
        self._latest_detections = cfar_detect(
            power, self.params, bin_ids=self.bins, factor=self.plan.cfar_factor,
            workspace=self.workspace,
        )
        return []
