"""Inter-task redistribution plans.

"In an integrated system, data redistribution is required to feed data from
one parallel task to another, because the way data is distributed in one
task may not be the most appropriate distribution for the next"
(Section 4.1.1).  A *plan* enumerates, for one edge of the task graph, every
point-to-point message: which source rank sends which subcube to which
destination rank, how many bytes that is, and whether the pack/unpack pass
is unit-stride or cache-hostile ("data collection ... involves data copying
from non-contiguous memory space", Section 5.2).

Three message families cover the pipeline's five edge types:

* :class:`CubeBlock` — K-axis redistribution (Doppler -> beamforming,
  Figure 8): every source rank sends its K-slice of every destination
  rank's Doppler bins; an all-to-all personalized exchange with full
  reorganization (bin-major from range-major).
* :class:`TrainingRows` — data-collected training samples (Doppler ->
  weight computation, Figure 6b): only the selected range cells travel.
* :class:`BinIntersection` — aligned bin-partition edges (weights -> BF,
  BF -> pulse compression, PC -> CFAR): both sides partition Doppler bins,
  so each pair exchanges the (often empty) intersection of their bin sets,
  with no reorganization ("no data collection or reorganization is
  needed", Sections 5.3-5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.partition import BlockPartition, block_ranges
from repro.errors import ConfigurationError
from repro.radar.parameters import STAPParams
from repro.stap.easy_weights import select_range_samples

#: Edges of the task graph in dataflow order: (edge name, src task, dst task).
EDGE_TOPOLOGY = (
    ("dop_to_easy_weight", "doppler", "easy_weight"),
    ("dop_to_hard_weight", "doppler", "hard_weight"),
    ("dop_to_easy_bf", "doppler", "easy_beamform"),
    ("dop_to_hard_bf", "doppler", "hard_beamform"),
    ("easy_weight_to_bf", "easy_weight", "easy_beamform"),
    ("hard_weight_to_bf", "hard_weight", "hard_beamform"),
    ("easy_bf_to_pc", "easy_beamform", "pulse_compression"),
    ("hard_bf_to_pc", "hard_beamform", "pulse_compression"),
    ("pc_to_cfar", "pulse_compression", "cfar"),
)

# Tag codes: tag = cpi_index * TAG_STRIDE + code, the code being the
# edge's position in EDGE_TOPOLOGY.
TAG_STRIDE = 16
TAG_CODES = {name: code for code, (name, _src, _dst) in enumerate(EDGE_TOPOLOGY)}


def validate_tag_space(stride: int = None, codes: dict = None) -> None:
    """Raise unless every edge code fits under the CPI tag stride.

    ``tag = cpi * TAG_STRIDE + code`` is only collision-free while
    ``TAG_STRIDE > max(code)``; this guard makes adding a tenth edge code
    without widening the stride an import-time error instead of a silent
    cross-CPI tag collision.
    """
    stride = TAG_STRIDE if stride is None else stride
    codes = TAG_CODES if codes is None else codes
    worst = max(codes.values())
    if stride <= worst:
        raise ConfigurationError(
            f"TAG_STRIDE ({stride}) must exceed the largest edge tag code "
            f"({worst}); CPI tags would collide across edges"
        )


validate_tag_space()


def edge_tag(edge_name: str, cpi_index: int) -> int:
    """The MPI tag for one edge at one pipeline iteration."""
    return cpi_index * TAG_STRIDE + TAG_CODES[edge_name]


#: Inverse of :data:`TAG_CODES`, for decoding observed message tags.
_EDGE_OF_CODE = {code: name for name, code in TAG_CODES.items()}


def edge_of_tag(tag: int) -> tuple:
    """Decode an MPI tag back to ``(edge_name, cpi_index)``.

    The observability layer uses this to label recorded messages with the
    pipeline edge they belong to; unknown codes (non-pipeline traffic)
    decode to ``(None, None)``.
    """
    if tag < 0:
        return None, None
    edge = _EDGE_OF_CODE.get(tag % TAG_STRIDE)
    if edge is None:
        return None, None
    return edge, tag // TAG_STRIDE


#: Shared empty result for ranks with no messages on an edge.
_NO_MESSAGES: tuple = ()


# ---------------------------------------------------------------------------
# message descriptors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CubeBlock:
    """One Doppler->BF message: dest's bins x channels x source's K-slice."""

    src: int
    dst: int
    k_start: int
    k_stop: int
    nbytes: int


@dataclass(frozen=True)
class SegmentRows:
    """Training rows of one range segment carried by one message."""

    segment: int
    #: Row indices within the destination's training buffer.
    row_positions: np.ndarray
    #: Absolute range cells at the source supplying those rows.
    k_indices: np.ndarray
    #: Absolute Doppler bins the destination trains with these rows.  For
    #: the easy edge this is simply the destination's bin block; for the
    #: hard edge it is the per-segment bin set implied by the (segment,
    #: bin) unit partition.
    bin_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))


@dataclass(frozen=True)
class TrainingRows:
    """One Doppler->weight message: collected training samples."""

    src: int
    dst: int
    segments: tuple[SegmentRows, ...]
    nbytes: int

    @property
    def total_rows(self) -> int:
        return sum(len(s.row_positions) for s in self.segments)


@dataclass(frozen=True)
class UnitIntersection:
    """One hard-weight -> hard-BF message: per-(segment, bin) weight rows.

    The hard weight task partitions the 6 x N_hard (segment, Doppler bin)
    *units* — that is how the paper runs 112 nodes on 56 hard bins — while
    hard beamforming partitions bins; this message carries the units whose
    bin falls in the destination's block.
    """

    src: int
    dst: int
    #: Positions of the carried units within the source's local unit array.
    src_pos: np.ndarray
    #: Range segment of each carried unit.
    segments: np.ndarray
    #: Position of each unit's bin within the destination's local bin axis.
    dst_bin_pos: np.ndarray
    nbytes: int


@dataclass(frozen=True)
class BinIntersection:
    """One aligned-bins message: rows at the intersection of bin sets."""

    src: int
    dst: int
    #: Global bin ids carried (sorted).
    ids: np.ndarray
    #: Positions of ``ids`` within the source's local bin axis.
    src_pos: np.ndarray
    #: Positions of ``ids`` within the destination's local bin axis.
    dst_pos: np.ndarray
    nbytes: int


@dataclass
class EdgePlan:
    """All messages of one task-graph edge, plus per-rank lookup."""

    name: str
    src_task: str
    dst_task: str
    src_size: int
    dst_size: int
    messages: list
    #: Whether the sender's data-collection/reorganization pass is strided.
    pack_strided: bool
    #: Whether the receiver's assembly pass is strided.
    unpack_strided: bool
    _by_src: dict = field(default_factory=dict, repr=False)
    _by_dst: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for message in self.messages:
            self._by_src.setdefault(message.src, []).append(message)
            self._by_dst.setdefault(message.dst, []).append(message)
        # Sort once at construction: sends_of/recvs_of run per rank per CPI
        # on the simulation hot path and used to re-sort on every call.
        for sends in self._by_src.values():
            sends.sort(key=lambda m: m.dst)
        for recvs in self._by_dst.values():
            recvs.sort(key=lambda m: m.src)

    def sends_of(self, src: int) -> Sequence:
        """Messages rank ``src`` of the source task must send, dst order.

        Returns a shared, presorted sequence — callers must not mutate it.
        """
        return self._by_src.get(src, _NO_MESSAGES)

    def recvs_of(self, dst: int) -> Sequence:
        """Messages rank ``dst`` of the destination task will receive.

        Returns a shared, presorted sequence — callers must not mutate it.
        """
        return self._by_dst.get(dst, _NO_MESSAGES)

    def send_bytes_of(self, src: int) -> int:
        """Total bytes rank ``src`` sends on this edge per CPI."""
        return sum(m.nbytes for m in self.sends_of(src))

    def recv_bytes_of(self, dst: int) -> int:
        """Total bytes rank ``dst`` receives on this edge per CPI."""
        return sum(m.nbytes for m in self.recvs_of(dst))

    @property
    def total_bytes(self) -> int:
        """Bytes crossing this edge per CPI."""
        return sum(m.nbytes for m in self.messages)


# ---------------------------------------------------------------------------
# selection helpers (shared with the numerics so training rows agree)
# ---------------------------------------------------------------------------
def easy_training_cells(params: STAPParams) -> np.ndarray:
    """Absolute range cells selected for easy training (one CPI's worth)."""
    return select_range_samples(params.num_ranges, params.easy_train_per_cpi)


def hard_training_cells(params: STAPParams) -> list[np.ndarray]:
    """Per-segment absolute range cells selected for hard training."""
    cells = []
    for seg in params.segment_slices:
        seg_len = seg.stop - seg.start
        count = min(params.hard_train_samples, seg_len)
        cells.append(seg.start + select_range_samples(seg_len, count))
    return cells


# ---------------------------------------------------------------------------
# plan builders
# ---------------------------------------------------------------------------
def plan_dop_to_easy_weight(
    params: STAPParams,
    k_partition: BlockPartition,
    bin_partition: BlockPartition,
    collect: bool = True,
) -> EdgePlan:
    """Doppler -> easy weight: collected training rows (Figure 6b).

    ``collect=False`` ablates the data-collection optimization: the wire
    size becomes the sender's whole K-slice (first Doppler window) per
    destination — the redundant-data cost the paper's design avoids.  The
    functional payloads are unaffected (the extra cells are never used);
    the ablation changes modeled bytes and makes the pack pass contiguous
    (a bulk dump needs no gather).
    """
    item = params.complex_itemsize
    J = params.num_channels
    sel = easy_training_cells(params)
    messages = []
    for src in range(k_partition.parts):
        k_lo, k_hi = k_partition.bounds(src)
        mask = (sel >= k_lo) & (sel < k_hi)
        rows = np.nonzero(mask)[0]
        if rows.size == 0 and collect:
            continue
        k_idx = sel[mask]
        for dst in range(bin_partition.parts):
            bins = bin_partition.ids_of(dst)
            if collect:
                nbytes = bins.size * rows.size * J * item
            else:
                nbytes = bins.size * (k_hi - k_lo) * J * item
            messages.append(
                TrainingRows(
                    src=src,
                    dst=dst,
                    segments=(SegmentRows(0, rows, k_idx, bins),),
                    nbytes=nbytes,
                )
            )
    return EdgePlan(
        name="dop_to_easy_weight",
        src_task="doppler",
        dst_task="easy_weight",
        src_size=k_partition.parts,
        dst_size=bin_partition.parts,
        messages=messages,
        pack_strided=collect,  # gathering scattered cells vs bulk dump
        unpack_strided=not collect,  # receiver must sift if not collected
    )


def plan_dop_to_hard_weight(
    params: STAPParams,
    k_partition: BlockPartition,
    unit_partition,
    collect: bool = True,
) -> EdgePlan:
    """Doppler -> hard weight: per-segment collected training rows.

    The hard weight task partitions (segment, bin) units, so each
    destination only needs the training rows of the segments it actually
    owns units for, restricted to those units' bins.  ``collect=False``
    ablates data collection (see :func:`plan_dop_to_easy_weight`): the
    wire carries the sender's whole K-slice overlap with each owned
    segment, both Doppler windows.
    """
    item = params.complex_itemsize
    n2 = params.num_staggered_channels
    per_segment = hard_training_cells(params)
    # Per destination: segment -> bins it trains there.
    dst_segment_bins = [
        unit_partition.segment_bins_of(dst) for dst in range(unit_partition.parts)
    ]
    messages = []
    for src in range(k_partition.parts):
        k_lo, k_hi = k_partition.bounds(src)
        src_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for seg_idx, sel in enumerate(per_segment):
            mask = (sel >= k_lo) & (sel < k_hi)
            rows = np.nonzero(mask)[0]
            if rows.size:
                src_rows[seg_idx] = (rows, sel[mask])
        if not src_rows:
            continue
        for dst in range(unit_partition.parts):
            segments = []
            nbytes = 0
            for seg_idx, bins in dst_segment_bins[dst].items():
                if seg_idx not in src_rows:
                    continue
                rows, k_idx = src_rows[seg_idx]
                segments.append(SegmentRows(seg_idx, rows, k_idx, bins))
                if collect:
                    nbytes += bins.size * rows.size * n2 * item
                else:
                    seg = params.segment_slices[seg_idx]
                    overlap = min(k_hi, seg.stop) - max(k_lo, seg.start)
                    nbytes += bins.size * max(overlap, 0) * n2 * item
            if segments:
                messages.append(
                    TrainingRows(
                        src=src, dst=dst, segments=tuple(segments), nbytes=nbytes
                    )
                )
    return EdgePlan(
        name="dop_to_hard_weight",
        src_task="doppler",
        dst_task="hard_weight",
        src_size=k_partition.parts,
        dst_size=unit_partition.parts,
        messages=messages,
        pack_strided=collect,
        unpack_strided=not collect,
    )


def plan_hard_weight_to_bf(
    params: STAPParams, unit_partition, bf_partition: BlockPartition
) -> EdgePlan:
    """Hard weight -> hard BF: weight vectors per (segment, bin) unit."""
    item = params.complex_itemsize
    bytes_per_unit = params.num_staggered_channels * params.num_beams * item
    messages = []
    for src in range(unit_partition.parts):
        units = unit_partition.units_of(src)
        bins = unit_partition.bins_of_units(units)
        _bin_pos, segs = unit_partition.decompose(units)
        for dst in range(bf_partition.parts):
            dst_bins = bf_partition.ids_of(dst)
            mask = np.isin(bins, dst_bins)
            if not mask.any():
                continue
            carried = np.nonzero(mask)[0]
            messages.append(
                UnitIntersection(
                    src=src,
                    dst=dst,
                    src_pos=carried,
                    segments=segs[carried],
                    dst_bin_pos=bf_partition.local_positions(dst, bins[carried]),
                    nbytes=int(carried.size) * bytes_per_unit,
                )
            )
    return EdgePlan(
        name="hard_weight_to_bf",
        src_task="hard_weight",
        dst_task="hard_beamform",
        src_size=unit_partition.parts,
        dst_size=bf_partition.parts,
        messages=messages,
        pack_strided=False,
        unpack_strided=False,
    )


def plan_dop_to_bf(
    params: STAPParams,
    k_partition: BlockPartition,
    bin_partition: BlockPartition,
    hard: bool,
) -> EdgePlan:
    """Doppler -> beamforming: the full K-axis redistribution (Figure 8).

    Easy BF receives only the first Doppler window (J channels); hard BF
    receives both (2J).
    """
    item = params.complex_itemsize
    channels = params.num_staggered_channels if hard else params.num_channels
    messages = []
    for src in range(k_partition.parts):
        k_lo, k_hi = k_partition.bounds(src)
        for dst in range(bin_partition.parts):
            nbins = bin_partition.size_of(dst)
            nbytes = nbins * channels * (k_hi - k_lo) * item
            messages.append(
                CubeBlock(src=src, dst=dst, k_start=k_lo, k_stop=k_hi, nbytes=nbytes)
            )
    return EdgePlan(
        name="dop_to_hard_bf" if hard else "dop_to_easy_bf",
        src_task="doppler",
        dst_task="hard_beamform" if hard else "easy_beamform",
        src_size=k_partition.parts,
        dst_size=bin_partition.parts,
        messages=messages,
        pack_strided=True,  # bin-major reorganization of range-major data
        unpack_strided=True,  # scattered K-slices into the full-K buffer
    )


def plan_bins_edge(
    name: str,
    src_task: str,
    dst_task: str,
    src_partition: BlockPartition,
    dst_partition: BlockPartition,
    bytes_per_bin: int,
) -> EdgePlan:
    """Generic aligned-bins edge: exchange bin-set intersections."""
    messages = []
    for src in range(src_partition.parts):
        src_ids = src_partition.ids_of(src)
        for dst in range(dst_partition.parts):
            ids = dst_partition.intersect(dst, src_ids)
            if ids.size == 0:
                continue
            messages.append(
                BinIntersection(
                    src=src,
                    dst=dst,
                    ids=ids,
                    src_pos=src_partition.local_positions(src, ids),
                    dst_pos=dst_partition.local_positions(dst, ids),
                    nbytes=int(ids.size) * bytes_per_bin,
                )
            )
    return EdgePlan(
        name=name,
        src_task=src_task,
        dst_task=dst_task,
        src_size=src_partition.parts,
        dst_size=dst_partition.parts,
        messages=messages,
        pack_strided=False,  # same partitioning strategy: contiguous blocks
        unpack_strided=False,
    )
