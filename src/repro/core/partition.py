"""Block partitioning of index ranges across task processors.

"Each task i is parallelized by evenly partitioning its work load among P_i
processors" (Section 5).  The Doppler task partitions the K range cells
(Figure 5); every other task partitions Doppler bins (Figures 7 and 9).
Uneven divisions spread the remainder over the leading blocks, keeping any
two blocks within one element of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


def block_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, near-even blocks."""
    if parts < 1:
        raise ConfigurationError(f"parts must be >= 1, got {parts}")
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def block_of(total: int, parts: int, index: int) -> int:
    """Block owning ``index`` under :func:`block_ranges` (inverse lookup)."""
    if not (0 <= index < total):
        raise ConfigurationError(f"index {index} outside range(0, {total})")
    base, extra = divmod(total, parts)
    boundary = extra * (base + 1)
    if index < boundary:
        return index // (base + 1)
    if base == 0:
        raise ConfigurationError(f"index {index} unowned: more parts than items")
    return extra + (index - boundary) // base


@dataclass(frozen=True)
class HardUnitPartition:
    """Partition of the hard weight task's (Doppler bin, segment) units.

    The hard weight computation has ``6 * N_hard`` independent units — one
    recursive QR per (range segment, hard bin) — which is how the paper
    assigns 112 nodes to a task with only 56 hard bins (Table 7, case 1).
    Unit ``u`` corresponds to bin position ``u // S`` and segment
    ``u % S``; bin-major ordering keeps a rank's units clustered on few
    bins, minimizing its training/weight communication partners.
    """

    bin_ids: tuple[int, ...]
    num_segments: int
    parts: int

    def __post_init__(self):
        if self.num_segments < 1:
            raise ConfigurationError(
                f"num_segments must be >= 1, got {self.num_segments}"
            )
        if self.parts < 1 or self.parts > self.num_units:
            raise ConfigurationError(
                f"cannot split {self.num_units} (bin, segment) units into "
                f"{self.parts} parts"
            )

    @property
    def num_units(self) -> int:
        return len(self.bin_ids) * self.num_segments

    def units_of(self, part: int) -> np.ndarray:
        """Unit indices owned by ``part``."""
        lo, hi = block_ranges(self.num_units, self.parts)[part]
        return np.arange(lo, hi)

    def size_of(self, part: int) -> int:
        lo, hi = block_ranges(self.num_units, self.parts)[part]
        return hi - lo

    def decompose(self, units) -> tuple[np.ndarray, np.ndarray]:
        """(bin positions, segments) of unit indices."""
        units = np.asarray(units)
        return units // self.num_segments, units % self.num_segments

    def bins_of_units(self, units) -> np.ndarray:
        """Absolute bin ids of unit indices."""
        bin_pos, _seg = self.decompose(units)
        return np.asarray(self.bin_ids)[bin_pos]

    def segment_bins_of(self, part: int) -> dict[int, np.ndarray]:
        """segment -> sorted absolute bin ids ``part`` trains for it."""
        units = self.units_of(part)
        bin_pos, segs = self.decompose(units)
        ids = np.asarray(self.bin_ids)
        out: dict[int, np.ndarray] = {}
        for seg in np.unique(segs):
            out[int(seg)] = ids[np.sort(bin_pos[segs == seg])]
        return out


@dataclass(frozen=True)
class BlockPartition:
    """A named block partition with id-array helpers.

    ``ids`` is the ordered array of *global* identifiers being partitioned
    (e.g. absolute Doppler bin numbers); part ``p`` owns the contiguous
    slice of ``ids`` given by :func:`block_ranges`.
    """

    ids: tuple[int, ...]
    parts: int

    def __post_init__(self):
        if self.parts < 1:
            raise ConfigurationError(f"parts must be >= 1, got {self.parts}")
        if self.parts > max(len(self.ids), 1):
            raise ConfigurationError(
                f"cannot split {len(self.ids)} items into {self.parts} parts"
            )

    @classmethod
    def of_range(cls, total: int, parts: int) -> "BlockPartition":
        """Partition of ``range(total)``."""
        return cls(tuple(range(total)), parts)

    @classmethod
    def of_ids(cls, ids, parts: int) -> "BlockPartition":
        """Partition of an explicit id sequence (e.g. the hard-bin list)."""
        return cls(tuple(int(i) for i in ids), parts)

    def bounds(self, part: int) -> tuple[int, int]:
        """(start, stop) positions within ``ids`` owned by ``part``."""
        if not (0 <= part < self.parts):
            raise ConfigurationError(f"part {part} outside range(0, {self.parts})")
        return block_ranges(len(self.ids), self.parts)[part]

    def ids_of(self, part: int) -> np.ndarray:
        """Global ids owned by ``part``."""
        lo, hi = self.bounds(part)
        return np.asarray(self.ids[lo:hi])

    def size_of(self, part: int) -> int:
        """Number of items owned by ``part``."""
        lo, hi = self.bounds(part)
        return hi - lo

    def owner_of_position(self, position: int) -> int:
        """Part owning the item at ``position`` within ``ids``."""
        return block_of(len(self.ids), self.parts, position)

    def intersect(self, part: int, other_ids) -> np.ndarray:
        """Global ids owned by ``part`` that also appear in ``other_ids``.

        ``other_ids`` may contain duplicates; the result is sorted unique.
        """
        mine = self.ids_of(part)
        return np.intersect1d(mine, np.asarray(other_ids))

    def local_positions(self, part: int, global_ids) -> np.ndarray:
        """Positions of ``global_ids`` within ``part``'s local block."""
        mine = self.ids_of(part)
        lookup = {int(g): i for i, g in enumerate(mine)}
        try:
            return np.asarray([lookup[int(g)] for g in np.asarray(global_ids).ravel()])
        except KeyError as exc:
            raise ConfigurationError(f"id {exc} not owned by part {part}") from None
