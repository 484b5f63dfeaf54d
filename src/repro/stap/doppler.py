"""Doppler filter processing with PRI stagger (pipeline task 0).

Implements Appendix B's ``rawToFFT``: two windowed Doppler FFTs are taken
per (range cell, channel) — one over pulses ``[0, N-s)`` and one over pulses
``[s, N)``, where ``s`` is the PRI stagger (3 at paper scale).  The two
spectra are stacked along the channel axis, producing the *staggered CPI*
cube of K x 2J x N the rest of the chain consumes.  A target at Doppler bin
``n`` appears in both halves with a known inter-half phase shift
``exp(-2*pi*i*n*s/N)``, which is the temporal degree of freedom the hard-bin
adaptive weights exploit.

Both windows go through one transform path: :func:`doppler_filter_block`
walks the range cells in cache-sized blocks, writes the two windowed
pulse ranges of a block side by side into one zero-padded buffer and
runs a single FFT over it.  Large blocks of range cells are split across
the host's cores (:mod:`repro.stap.threads`), the in-process form of the
paper's K partition of this task.  Neither changes a bit of the output.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.datacube import CPIDataCube
from repro.radar.parameters import STAPParams
from repro.radar.windows import window_by_name
from repro.stap.threads import split_batch
from repro.stap.workspace import scratch


def stagger_phase(params: STAPParams, doppler_bins) -> np.ndarray:
    """Phase rotation of the late Doppler window relative to the early one.

    A tone at bin ``n`` appears in the late (stagger-delayed) window rotated
    by ``exp(+2*pi*i * n * stagger / N)``: the late window sees the same
    samples ``stagger`` pulses later.  Its conjugate is the factor in
    Appendix B's frequency-constraint rows.
    """
    bins = np.asarray(doppler_bins)
    return np.exp(2j * np.pi * bins * params.stagger / params.num_doppler)


def doppler_filter(
    cube: CPIDataCube | np.ndarray,
    params: STAPParams | None = None,
    window: np.ndarray | None = None,
    workspace=None,
) -> np.ndarray:
    """Doppler-filter one CPI into the staggered cube.

    Parameters
    ----------
    cube:
        Raw CPI cube (K x J x N), or a :class:`CPIDataCube`.
    params:
        Required when ``cube`` is a bare array.
    window:
        Optional precomputed filter-bank window (see
        :func:`doppler_filter_block`).
    workspace:
        Optional :class:`~repro.stap.workspace.Workspace` whose buffer
        receives the staggered cube (see :func:`doppler_filter_block`).

    Returns
    -------
    numpy.ndarray
        Staggered Doppler data of shape (N, 2J, K): Doppler bin x staggered
        channel x range cell.  Channels ``[:J]`` hold the first (early)
        window, ``[J:]`` the second (late, staggered) window.  The
        bin-major layout makes the downstream per-Doppler-bin tasks
        unit-stride in range — the reorganization the paper performs during
        inter-task redistribution (Figure 8).
    """
    if isinstance(cube, CPIDataCube):
        params = cube.params
        data = cube.data
    else:
        if params is None:
            raise ConfigurationError("params required when passing a bare array")
        data = np.asarray(cube)
    K, J, N = params.num_ranges, params.num_channels, params.num_pulses
    if data.shape != (K, J, N):
        raise ConfigurationError(f"cube shape {data.shape} != ({K},{J},{N})")
    return doppler_filter_block(data, params, window=window, workspace=workspace)


def range_correction_factors(params: STAPParams, k_start: int, count: int) -> np.ndarray:
    """R^2 sensitivity-time-control gains for range cells [k_start, +count).

    Echo power falls as R^4; correcting amplitude by (R / R_max)^2 levels
    the noise-relative sensitivity across range.  Normalized so the far
    cell has unit gain.
    """
    if not (0 <= k_start and k_start + count <= params.num_ranges):
        raise ConfigurationError(
            f"range cells [{k_start}, {k_start + count}) outside "
            f"[0, {params.num_ranges})"
        )
    cells = np.arange(k_start, k_start + count, dtype=float)
    return ((cells + 1.0) / params.num_ranges) ** 2


#: Range cells per cache block: at paper scale a (cells, 2, J, N)
#: complex64 block is 512 KB, so the windowed rows and their spectra stay
#: in cache between the multiply, the FFT and the transposed write.
BLOCK_CELLS = 16

#: Fewest input samples (cells x J x N) per thread worth a split: 16
#: paper-scale cells, one cache block.  On a 2-CPU host a split of 8
#: paper-scale cells per thread ran slower than one thread and 16 ran
#: faster; whole small-scale cubes (128 cells of 8 x 32) stay on one
#: thread, where a forced split lost (docs/performance.md).
SPLIT_MIN_SAMPLES = 16 * 16 * 128


def min_split_cells(params: STAPParams) -> int:
    """Fewest range cells per thread in a split :func:`doppler_filter_block`."""
    return -(-SPLIT_MIN_SAMPLES // (params.num_channels * params.num_pulses))


def doppler_filter_block(
    data: np.ndarray,
    params: STAPParams,
    k_start: int = 0,
    window: np.ndarray | None = None,
    workspace=None,
) -> np.ndarray:
    """Doppler-filter a K-slice of a CPI cube: (k, J, N) -> (N, 2J, k).

    This is the per-processor kernel of the parallel Doppler task, which
    owns ``K / P_0`` range cells (Figure 5); :func:`doppler_filter` is the
    full-cube wrapper.  ``k_start`` is the slice's absolute first range
    cell — needed when range correction is enabled, since the correction
    gain depends on absolute range.

    ``window``: optional precomputed filter-bank window (a
    :class:`~repro.stap.plan.KernelPlan` holds it); default recomputes it
    from the params — identical values either way.

    ``workspace``: optional :class:`~repro.stap.workspace.Workspace` whose
    buffer receives the output, valid until the next call with it; the
    output is fresh without one.

    The slice is split along range cells over the kernel threads
    (:mod:`repro.stap.threads`) once it holds at least
    :data:`SPLIT_MIN_SAMPLES` samples per thread — the same K partition the
    paper applies across processors.  Each thread walks its cells in
    cache-sized blocks of :data:`BLOCK_CELLS` (see :func:`_filter_cells`).
    Every (cell, channel, window) row is transformed on its own, so the
    output is bit-identical for any split or block size.
    """
    J, N = params.num_channels, params.num_pulses
    data = np.asarray(data)
    if data.ndim != 3 or data.shape[1] != J or data.shape[2] != N:
        raise ConfigurationError(
            f"block shape {data.shape} must be (k, {J}, {N})"
        )
    gains = None
    if params.range_correction:
        gains = range_correction_factors(params, k_start, data.shape[0])
    win_len = N - params.stagger
    if window is None:
        window = window_by_name(params.window, win_len).astype(params.real_dtype)
    elif window.shape != (win_len,):
        raise ConfigurationError(
            f"window length {window.shape} != ({win_len},)"
        )

    start = perf_counter() if metrics_registry.enabled else None
    num_cells = data.shape[0]
    out = scratch(workspace, "doppler.staggered", (N, 2 * J, num_cells), np.complex128)

    def filter_cells(lo: int, hi: int) -> None:
        _filter_cells(data, gains, window, params.stagger, out, lo, hi)

    split_batch(filter_cells, num_cells, min_split_cells(params))
    if start is not None:
        from repro.stap.flops import doppler_flops

        share = num_cells / params.num_ranges
        record_kernel(
            "doppler", perf_counter() - start, doppler_flops(params) * share
        )
    return out


def _filter_cells(data, gains, window, stagger, out, lo, hi) -> None:
    """Doppler-filter range cells ``[lo, hi)`` of ``data`` into ``out``.

    Per block of :data:`BLOCK_CELLS` cells, both windows — pulses
    ``[0, N-s)`` and ``[s, N)`` — are written side by side into one
    zero-padded ``(cells, 2, J, N)`` buffer, one in-place FFT runs along
    the pulse axis (unit stride in the corner-turned cube — the whole point
    of partitioning this task along K, Section 5.1), and the spectra are
    transposed into ``out``'s ``(N, 2J, k)`` layout.  The multiplies use
    the same operand dtypes as a plain ``data[..., :N-s] * window``, the
    pad columns are zero as in ``np.fft.fft(..., n=N)``, and the spectra
    keep the FFT's own result dtype, so the values match a separate FFT
    per window exactly.
    """
    J, N = data.shape[1], data.shape[2]
    win_len = N - stagger
    factors = (window,) if gains is None else (gains, window)
    dtype = np.result_type(data.dtype, *(f.dtype for f in factors))
    rows = np.zeros((min(BLOCK_CELLS, hi - lo), 2, J, N), dtype=dtype)
    # (N, 2J, k) viewed as (N, 2, J, k): window h, channel j -> h*J + j.
    out4 = out.reshape(N, 2, J, out.shape[2])
    for first in range(lo, hi, BLOCK_CELLS):
        cells = min(BLOCK_CELLS, hi - first)
        block = data[first : first + cells]
        if gains is not None:
            block = block * gains[first : first + cells, None, None]
        np.multiply(block[:, :, :win_len], window, out=rows[:cells, 0, :, :win_len])
        np.multiply(block[:, :, stagger:], window, out=rows[:cells, 1, :, :win_len])
        spectra = np.fft.fft(rows[:cells], axis=3, out=rows[:cells])
        out4[:, :, :, first : first + cells] = spectra.transpose(3, 1, 2, 0)
        # The FFT overwrote the pad columns; the next block needs them zero.
        rows[:cells, :, :, win_len:] = 0


def nearest_bin(params: STAPParams, normalized_doppler: float) -> int:
    """FFT bin whose centre frequency is nearest ``normalized_doppler``."""
    N = params.num_doppler
    return int(np.round(normalized_doppler * N)) % N
