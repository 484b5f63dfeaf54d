"""Task 0: Doppler filter processing.

Receives one CPI cube slice from the sensor front-end, Doppler-filters its
``K / P_0`` range cells (Figure 5), then feeds four successors:

* collected training samples to the easy / hard weight tasks (Figure 6b) —
  only the selected range cells travel ("data collection is performed to
  avoid sending redundant data");
* the bin-major reorganized staggered cube to the easy / hard beamforming
  tasks (Figure 8) — the all-to-all personalized redistribution whose
  pack cost the paper identifies as the dominant communication overhead.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.task import MODELED, PipelineTask
from repro.stap.doppler import doppler_filter_block
from repro.stap.flops import doppler_flops


class DopplerTask(PipelineTask):
    name = "doppler"
    kernel = "doppler"

    def __init__(
        self,
        *args,
        source=None,
        sensor_seconds: float = 0.0,
        input_period: float = 0.0,
        input_offset: float = 0.0,
        **kwargs,
    ):
        """``source``: callable cpi_index -> CPIDataCube (functional mode).

        ``sensor_seconds``: modeled time to receive this rank's cube slice
        from the radar front-end (wire + unpack).

        ``input_period``: seconds between successive CPIs arriving from the
        radar (0 = data always ready; the pipeline self-paces).

        ``input_offset``: arrival time of this pipeline's first CPI —
        nonzero for the staggered replicas of a replicated deployment."""
        super().__init__(*args, **kwargs)
        self.source = source
        self.sensor_seconds = sensor_seconds
        self.input_period = input_period
        self.input_offset = input_offset
        self.k_lo, self.k_hi = self.layout.k_partition.bounds(self.local_rank)

    # -- framework hooks ---------------------------------------------------------
    def pre_iteration(self, ctx, cpi: int):
        if self.input_period > 0.0 or self.input_offset > 0.0:
            available_at = self.input_offset + cpi * self.input_period
            if ctx.wtime() < available_at:
                yield ctx.elapse(available_at - ctx.wtime())

    def recv_edges(self, cpi: int) -> list[str]:
        return []  # input arrives from the sensor, not from a pipeline task

    def extra_recv_seconds(self, cpi: int) -> float:
        return self.sensor_seconds

    def local_flops(self, cpi: int) -> float:
        share = (self.k_hi - self.k_lo) / self.params.num_ranges
        return doppler_flops(self.params) * share

    def on_iteration_start(self, cpi: int, now: float) -> None:
        self.collector.record_input_start(cpi, now)

    # -- work ----------------------------------------------------------------------
    def compute(self, cpi: int, received: Dict[str, Dict[int, Any]]):
        staggered = None
        if self.functional:
            cube = self.source(cpi)
            staggered = doppler_filter_block(
                cube.data[self.k_lo : self.k_hi],
                self.params,
                k_start=self.k_lo,
                window=self.plan.doppler_window,
            )
        sends = []
        J = self.params.num_channels
        layout = self.layout

        # Training samples for the weight tasks (data collection, Fig 6b).
        for edge_name, use_both_windows in (
            ("dop_to_easy_weight", False),
            ("dop_to_hard_weight", True),
        ):
            plan = layout.plan(edge_name)
            channels = 2 * J if use_both_windows else J
            messages = []
            for message in plan.sends_of(self.local_rank):
                if not self.functional:
                    messages.append((message, MODELED))
                    continue
                parts = {}
                for seg in message.segments:
                    cols = seg.k_indices - self.k_lo
                    # Conjugated snapshots, (bins, rows, channels): see
                    # repro.stap.easy_weights.extract_easy_training.  The
                    # separated advanced indices place the broadcast
                    # (bins, rows) axes first, gathering the transposed
                    # block in one pass instead of copy + slice + copy.
                    parts[seg.segment] = np.conj(
                        staggered[seg.bin_ids[:, None], :channels, cols[None, :]]
                    )
                messages.append((message, parts))
            if messages:
                sends.append((edge_name, messages))

        # Full redistribution to the beamforming tasks (Fig 8).
        for edge_name, bins_partition, use_both_windows in (
            ("dop_to_easy_bf", layout.easy_bf_bins, False),
            ("dop_to_hard_bf", layout.hard_bf_bins, True),
        ):
            plan = layout.plan(edge_name)
            messages = []
            for message in plan.sends_of(self.local_rank):
                if not self.functional:
                    messages.append((message, MODELED))
                    continue
                bins = bins_partition.ids_of(message.dst)
                # Advanced indexing already yields a fresh C-contiguous
                # cube — one gather, no ascontiguousarray re-copy.
                payload = (
                    staggered[bins]
                    if use_both_windows
                    else staggered[bins, :J, :]
                )
                messages.append((message, payload))
            if messages:
                sends.append((edge_name, messages))
        return sends
