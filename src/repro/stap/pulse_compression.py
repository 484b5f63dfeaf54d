"""Pulse compression (pipeline task 5).

"Pulse compression involves convolution of the received signal with a
replica of the transmit pulse waveform.  This is accomplished by first
performing K-point FFTs on the two inputs, point-wise multiplication of the
intermediate result and then computing the inverse FFT" (Section 5.4).

Because the mainbeam constraint preserves target phase across range, pulse
compression runs on the *beamformed* output (M beams) instead of on every
receive channel — the algorithm-level saving Section 3 highlights.  After
filtering, "the square of the magnitude of the complex data is computed to
move to the real power domain", halving the data and avoiding square roots.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.radar.waveform import lfm_chirp, matched_filter_frequency_response
from repro.stap.workspace import scratch


def replica_response(params: STAPParams) -> np.ndarray:
    """Matched-filter frequency response for the configured waveform."""
    return matched_filter_frequency_response(
        lfm_chirp(params.waveform_length), params.num_ranges
    )


def pulse_compress(
    beamformed: np.ndarray,
    params: STAPParams,
    replica_freq: np.ndarray | None = None,
    workspace=None,
) -> np.ndarray:
    """Matched-filter along range and square to the power domain.

    Parameters
    ----------
    beamformed:
        (N, M, K) complex beamformed cube.
    replica_freq:
        Optional precomputed :func:`replica_response` (length K).
    workspace:
        Optional :class:`~repro.stap.workspace.Workspace` holding the
        spectrum and the returned power cube (see
        :func:`pulse_compress_block`).

    Returns
    -------
    (N, M, K) real power cube.  The correlation peak of a target injected at
    range cell ``k0`` lands at index ``k0``.
    """
    N, M, K = params.num_doppler, params.num_beams, params.num_ranges
    if beamformed.shape != (N, M, K):
        raise ConfigurationError(
            f"beamformed shape {beamformed.shape} != ({N},{M},{K})"
        )
    return pulse_compress_block(beamformed, params, replica_freq, workspace)


def pulse_compress_block(
    beamformed: np.ndarray,
    params: STAPParams,
    replica_freq: np.ndarray | None = None,
    workspace=None,
) -> np.ndarray:
    """Matched filter an arbitrary block of Doppler bins: (b, M, K).

    The per-processor kernel of the parallel pulse-compression task, which
    owns ``N / P_5`` Doppler bins (Figure 9); :func:`pulse_compress` is the
    full-cube wrapper.

    Both FFTs write into one spectrum buffer and the power is squared in
    place, so the kernel holds one complex and one real cube.  With a
    ``workspace`` both are its buffers, and the returned power stays valid
    until the next call with that workspace; without one both are fresh.
    """
    M, K = params.num_beams, params.num_ranges
    beamformed = np.asarray(beamformed)
    if beamformed.ndim != 3 or beamformed.shape[1:] != (M, K):
        raise ConfigurationError(
            f"block shape {beamformed.shape} must be (bins, {M}, {K})"
        )
    if replica_freq is None:
        replica_freq = replica_response(params)
    if replica_freq.shape != (K,):
        raise ConfigurationError(
            f"replica response length {replica_freq.shape} != ({K},)"
        )
    start = perf_counter() if metrics_registry.enabled else None
    # The FFT's precision follows the input's: complex64 stays single.
    spectrum = scratch(
        workspace, "pulse_compression.spectrum", beamformed.shape,
        np.result_type(beamformed.dtype, np.complex64),
    )
    np.fft.fft(beamformed, axis=2, out=spectrum)
    spectrum *= replica_freq[None, None, :]
    np.fft.ifft(spectrum, axis=2, out=spectrum)
    # |z|^2 = re^2 + im^2 at the FFT's precision: square the interleaved
    # parts in place, then add each pair, rounding once to the params'
    # real dtype.
    parts = spectrum.view(spectrum.real.dtype)
    np.square(parts, out=parts)
    power = scratch(
        workspace, "pulse_compression.power", beamformed.shape, params.real_dtype
    )
    np.add(parts[..., 0::2], parts[..., 1::2], out=power)
    if start is not None:
        from repro.stap.flops import pulse_compression_flops

        share = beamformed.shape[0] / params.num_doppler
        record_kernel(
            "pulse_compression",
            perf_counter() - start,
            pulse_compression_flops(params) * share,
        )
    return power
