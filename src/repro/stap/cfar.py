"""Sliding-window cell-averaging CFAR (pipeline task 6).

"The sliding window constant false alarm rate (CFAR) processing compares the
value of a test cell at a given range to the average of a set of reference
cells around it times a probability of false alarm factor" (Section 5.5).

Implementation: per (Doppler bin, beam) row, a window of ``cfar_window``
reference cells on each side of the cell under test, separated by
``cfar_guard`` guard cells.  The noise estimate is the mean of the available
reference cells (windows truncate at the row edges, and the threshold factor
adapts to the actual cell count so the design Pfa holds everywhere).
Vectorized with a cumulative sum along range — one pass, no Python loop over
cells; the window edges are read from it as a few slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.stap.workspace import scratch


@dataclass(frozen=True, order=True)
class Detection:
    """One CFAR crossing: where, how strong, and against what threshold."""

    doppler_bin: int
    beam: int
    range_cell: int
    power: float
    threshold: float

    @property
    def margin_db(self) -> float:
        """Detection margin over threshold in dB."""
        return 10.0 * np.log10(self.power / self.threshold)


def cfar_threshold_factor(num_reference: np.ndarray | int, pfa: float) -> np.ndarray:
    """CA-CFAR scale factor ``alpha`` for a given reference-cell count.

    For exponentially-distributed noise power (complex Gaussian voltage)
    averaged over ``n`` cells, ``alpha = n * (pfa**(-1/n) - 1)`` yields the
    design false-alarm probability — the standard cell-averaging CFAR
    result.
    """
    n = np.asarray(num_reference, dtype=float)
    if np.any(n < 1):
        raise ConfigurationError("reference cell count must be >= 1")
    if not (0.0 < pfa < 1.0):
        raise ConfigurationError(f"pfa must be in (0, 1), got {pfa}")
    return n * (pfa ** (-1.0 / n) - 1.0)


def reference_cell_counts(params: STAPParams) -> np.ndarray:
    """Reference cells actually available at each range index (edge-aware)."""
    K, W, G = params.num_ranges, params.cfar_window, params.cfar_guard
    k = np.arange(K)
    lead_lo = np.maximum(k - G - W, 0)
    lead_hi = np.maximum(k - G, 0)
    trail_lo = np.minimum(k + G + 1, K)
    trail_hi = np.minimum(k + G + 1 + W, K)
    counts = (lead_hi - lead_lo) + (trail_hi - trail_lo)
    return np.maximum(counts, 1)


@lru_cache(maxsize=None)
def _window_runs(K: int, W: int, G: int) -> tuple:
    """Runs of range cells over which every window edge is a slice.

    The four window edges (lead window ``[lead_lo, lead_hi)``, trail
    window ``[trail_lo, trail_hi)``) are ramps clipped to ``[0, K]``: per
    cell each edge moves by one or not at all.  Returns ``(start, stop,
    edges)`` per run, ``edges`` holding ``(first, step)`` of the lead
    hi/lo and trail hi/lo indices into the cumulative sum, so a run's
    edge values are ``csum[..., first:first + length]`` (step 1) or
    ``csum[..., first:first + 1]`` broadcast (step 0).
    """
    k = np.arange(K)
    ramps = np.stack([
        np.maximum(k - G, 0),
        np.maximum(k - G - W, 0),
        np.minimum(k + G + 1 + W, K),
        np.minimum(k + G + 1, K),
    ])
    steps = np.diff(ramps, axis=1)
    # A run ends where any edge changes its step between two cells.
    cuts = np.flatnonzero(np.any(steps[:, 1:] != steps[:, :-1], axis=0)) + 2
    bounds = [0, *cuts.tolist(), K]
    runs = []
    for start, stop in zip(bounds, bounds[1:]):
        step = steps[:, start] if stop - start > 1 else np.zeros(4, dtype=int)
        edges = tuple(
            (int(ramp[start]), int(ramp_step))
            for ramp, ramp_step in zip(ramps, step)
        )
        runs.append((start, stop, edges))
    return tuple(runs)


def _window_sums(power: np.ndarray, params: STAPParams, workspace=None) -> np.ndarray:
    """Sum of reference cells around each range index, in float64.

    One cumulative sum along range, accumulated in float64 in its own
    buffer (no float64 copy of the cube), then each window edge is read
    as a few slices of it (:func:`_window_runs`) — the same subtractions,
    in the same order, as indexing the cumulative sum at every edge.  With
    a ``workspace`` the cumulative sum and the sums live in its buffers.
    """
    K, W, G = params.num_ranges, params.cfar_window, params.cfar_guard
    rows = power.shape[:-1]
    csum = scratch(workspace, "cfar.csum", rows + (K + 1,), np.float64)
    csum[..., 0] = 0.0
    # Widen into the buffer, then sum in place: a cumsum with a float64
    # dtype would first cast the whole cube into a temporary.
    csum[..., 1:] = power
    np.cumsum(csum[..., 1:], axis=-1, out=csum[..., 1:])
    lead = scratch(workspace, "cfar.sums", rows + (K,), np.float64)
    trail = scratch(workspace, "cfar.trail", rows + (K,), np.float64)
    for start, stop, edges in _window_runs(K, W, G):
        lead_hi, lead_lo, trail_hi, trail_lo = (
            csum[..., first : first + (stop - start if step else 1)]
            for first, step in edges
        )
        np.subtract(lead_hi, lead_lo, out=lead[..., start:stop])
        np.subtract(trail_hi, trail_lo, out=trail[..., start:stop])
    return np.add(lead, trail, out=lead)


def cfar_detect(
    power: np.ndarray,
    params: STAPParams,
    pfa: float | None = None,
    bin_ids=None,
    factor: np.ndarray | None = None,
    workspace=None,
) -> list[Detection]:
    """Run CA-CFAR over a power cube; returns detections sorted by index.

    Parameters
    ----------
    power:
        (bins, M, K) real power cube from pulse compression — the full cube
        (bins = N) or a block of Doppler bins owned by one parallel CFAR
        processor.
    pfa:
        Override of ``params.cfar_pfa``.
    bin_ids:
        Global Doppler bin number of each row of ``power`` (default:
        ``0..bins-1``).  CFAR is independent per (bin, beam) row, so
        detections from a block labelled this way match the full-cube run
        exactly.
    factor:
        Optional precomputed (K,) ``alpha / counts`` threshold factor (a
        :class:`~repro.stap.plan.KernelPlan` holds it for the design Pfa).
        Mutually exclusive with ``pfa`` — the factor bakes one in.
    workspace:
        Optional :class:`~repro.stap.workspace.Workspace` whose buffers
        hold the window sums, thresholds and crossing mask instead of
        fresh arrays.
    """
    M, K = params.num_beams, params.num_ranges
    power = np.asarray(power)
    if power.ndim != 3 or power.shape[1:] != (M, K):
        raise ConfigurationError(
            f"power cube shape {power.shape} must be (bins, {M}, {K})"
        )
    if np.iscomplexobj(power):
        raise ConfigurationError("CFAR expects real power data")
    if bin_ids is None:
        bin_ids = np.arange(power.shape[0])
    else:
        bin_ids = np.asarray(bin_ids)
        if bin_ids.shape != (power.shape[0],):
            raise ConfigurationError(
                f"bin_ids length {bin_ids.shape} != {power.shape[0]} rows"
            )
    if factor is None:
        pfa = params.cfar_pfa if pfa is None else pfa
        counts = reference_cell_counts(params)
        factor = cfar_threshold_factor(counts, pfa) / counts
    elif pfa is not None:
        raise ConfigurationError("pass either a pfa override or a factor, not both")
    elif factor.shape != (K,):
        raise ConfigurationError(f"factor length {factor.shape} != ({K},)")
    start = perf_counter() if metrics_registry.enabled else None
    sums = _window_sums(power, params, workspace)
    thresholds = np.multiply(sums, factor, out=sums)
    mask = np.greater(
        power, thresholds, out=scratch(workspace, "cfar.mask", power.shape, bool)
    )
    # The crossings in C order from one flat scan of the mask (far cheaper
    # than a 3-D argwhere), then their values by index; Detection
    # construction is the only per-hit Python work.
    hits = np.unravel_index(np.flatnonzero(mask), mask.shape)
    detections = [
        Detection(
            doppler_bin=int(bin_id),
            beam=int(m),
            range_cell=int(k),
            power=float(value),
            threshold=float(threshold),
        )
        for bin_id, m, k, value, threshold in zip(
            bin_ids[hits[0]], hits[1].tolist(), hits[2].tolist(),
            power[hits].tolist(), thresholds[hits].tolist(),
        )
    ]
    detections.sort()
    if start is not None:
        from repro.stap.flops import cfar_flops

        share = power.shape[0] / params.num_doppler
        record_kernel(
            "cfar", perf_counter() - start, cfar_flops(params) * share
        )
    return detections
