"""Beamforming (pipeline tasks 3 and 4: "easy BF" / "hard BF").

Applies the adaptive weights to the Doppler-filtered data:
``y[n, m, k] = w[n, :, m]^H  x[n, :, k]`` — per Doppler bin, an M x C times
C x K matrix product (C = J for easy bins, 2J for hard bins, the latter per
range segment).  These are exactly the matrix-matrix multiplications whose
counts appear in the paper's Table 1.

Both functions take any block of bins; they are the one beamforming code
of the sequential reference (every bin), the simulator's beamforming
tasks (a rank's block) and the real runtime's beamform workers.

Each bin's product runs as one batched ``matmul`` of the transposed data
with the conjugated weights, ``y[n]^T = x[n]^T conj(w[n])`` — the product
``np.einsum("njm,njk->nmk", ...)`` dispatches to — written straight into
a (bins, K, M) buffer; the result is its (bins, M, K) transpose, as
``einsum`` returns it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.stap.workspace import scratch


def beamform_easy(
    dop_easy: np.ndarray, weights: np.ndarray, params: STAPParams, workspace=None
) -> np.ndarray:
    """Easy-bin beamforming of any block of B easy bins.

    Parameters
    ----------
    dop_easy:
        (B, J, K) — easy bins of the staggered cube, first Doppler window
        only (all N_easy of them in the reference, a rank's block in the
        parallel task).
    weights:
        (B, J, M) easy weights of the same bins.
    workspace:
        Optional :class:`~repro.stap.workspace.Workspace` whose buffer
        receives the result (valid until the next call with it).

    Returns
    -------
    (B, M, K) beamformed data, freshly allocated without a workspace.
    Each bin is computed on its own, so a block's result equals the
    full-extent result's rows.
    """
    J, K, M = params.num_channels, params.num_ranges, params.num_beams
    if dop_easy.ndim != 3 or dop_easy.shape[1:] != (J, K):
        raise ConfigurationError(
            f"easy Doppler data shape {dop_easy.shape} != (bins, {J}, {K})"
        )
    expected_w = (dop_easy.shape[0], J, M)
    if weights.shape != expected_w:
        raise ConfigurationError(f"easy weights shape {weights.shape} != {expected_w}")
    start = perf_counter() if metrics_registry.enabled else None
    out = scratch(
        workspace, "beamform.easy", (dop_easy.shape[0], K, M),
        np.result_type(weights.dtype, dop_easy.dtype),
    )
    np.matmul(dop_easy.transpose(0, 2, 1), np.conj(weights), out=out)
    out = out.transpose(0, 2, 1)
    if start is not None:
        from repro.stap.flops import easy_beamform_flops

        share = dop_easy.shape[0] / params.num_easy_doppler
        record_kernel(
            "easy_beamform",
            perf_counter() - start,
            easy_beamform_flops(params) * share,
        )
    return out


def beamform_hard(
    dop_hard: np.ndarray, weights: np.ndarray, params: STAPParams, workspace=None
) -> np.ndarray:
    """Hard-bin beamforming of any block of B hard bins, per-segment weights.

    Parameters
    ----------
    dop_hard:
        (B, 2J, K) — hard bins of the staggered cube, both windows.
    weights:
        (num_segments, B, 2J, M) hard weights of the same bins.
    workspace:
        Optional :class:`~repro.stap.workspace.Workspace` whose buffer
        receives the result (valid until the next call with it).

    Returns
    -------
    (B, M, K) beamformed data, freshly allocated without a workspace;
    range segment ``s`` of the output uses segment ``s``'s weights.  Each
    bin is computed on its own, so a block's result equals the
    full-extent result's rows.
    """
    n2, K = params.num_staggered_channels, params.num_ranges
    if dop_hard.ndim != 3 or dop_hard.shape[1:] != (n2, K):
        raise ConfigurationError(
            f"hard Doppler data shape {dop_hard.shape} != (bins, {n2}, {K})"
        )
    num_bins = dop_hard.shape[0]
    expected_w = (params.num_segments, num_bins, n2, params.num_beams)
    if weights.shape != expected_w:
        raise ConfigurationError(f"hard weights shape {weights.shape} != {expected_w}")
    start = perf_counter() if metrics_registry.enabled else None
    out = scratch(
        workspace, "beamform.hard", (num_bins, K, params.num_beams), complex
    )
    for seg_idx, seg in enumerate(params.segment_slices):
        np.matmul(dop_hard[:, :, seg].transpose(0, 2, 1), np.conj(weights[seg_idx]),
                  out=out[:, seg, :])
    out = out.transpose(0, 2, 1)
    if start is not None:
        from repro.stap.flops import hard_beamform_flops

        share = num_bins / params.num_hard_doppler
        record_kernel(
            "hard_beamform",
            perf_counter() - start,
            hard_beamform_flops(params) * share,
        )
    return out


def assemble_beamformed(
    easy: np.ndarray, hard: np.ndarray, params: STAPParams, workspace=None
) -> np.ndarray:
    """Interleave easy- and hard-bin results into the full (N, M, K) cube.

    Bin order follows the FFT bin index, so hard bins land at both spectrum
    edges and easy bins in the centre — the layout pulse compression and
    CFAR consume.  With a ``workspace`` the cube is its buffer.
    """
    N, M, K = params.num_doppler, params.num_beams, params.num_ranges
    if easy.shape != (params.num_easy_doppler, M, K):
        raise ConfigurationError(f"easy beamformed shape {easy.shape} unexpected")
    if hard.shape != (params.num_hard_doppler, M, K):
        raise ConfigurationError(f"hard beamformed shape {hard.shape} unexpected")
    out = scratch(workspace, "beamform.assembled", (N, M, K), complex)
    out[params.easy_bins] = easy
    out[params.hard_bins] = hard
    return out
