"""KernelPlan: every CPI-invariant factor of the STAP chain, built once.

The functional pipeline used to rebuild several small constants on every
CPI — the Doppler window, the matched-filter replica spectrum (an
``lfm_chirp`` plus a K-point FFT per call), quiescent fallback weights,
and the CFAR ``alpha / counts`` threshold factors.  None of them depend on
the data; they are pure functions of :class:`~repro.radar.parameters.
STAPParams` and the steering matrix.  A :class:`KernelPlan` computes them
exactly once — at pipeline/task setup — and every kernel call reuses the
arrays.

Every path — the sequential reference, the simulator's functional tasks
and the real runtime's workers — takes these constants from one plan,
including the quiescent cold-start weights every path beamforms with
before an azimuth's first training (:meth:`KernelPlan.cold_easy_weights`,
:meth:`KernelPlan.cold_hard_weights`).  Bins are precomputed for the
full Doppler extent and sliced per task (``stagger_phases[bins]``,
``hard_quiescent[bins]``); the underlying kernels are batch-composition
independent, so a slice of the full-extent array equals the per-bin
computation.

The plan is shared freely across tasks and with the sequential reference:
all fields are read-only by convention (tasks only ever index into them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.radar.parameters import STAPParams
from repro.radar.windows import window_by_name
from repro.stap.cfar import cfar_threshold_factor, reference_cell_counts
from repro.stap.doppler import stagger_phase
from repro.stap.lsq import quiescent_weights, quiescent_weights_stacked
from repro.stap.pulse_compression import replica_response


@dataclass(frozen=True)
class KernelPlan:
    """Precomputed per-run constants for the functional STAP kernels."""

    params: STAPParams
    #: (J, M) receive-beam steering matrix.
    steering: np.ndarray
    #: (J, M) steering-only weights — the easy chain's cold-start fallback.
    easy_quiescent: np.ndarray
    #: (N,) late-window stagger phase of every Doppler bin.
    stagger_phases: np.ndarray
    #: (N, 2J, M) coherent staggered quiescent weights of every bin — the
    #: hard chain's cold-start fallback (indexed by absolute bin id).
    hard_quiescent: np.ndarray
    #: (N - stagger,) Doppler filter-bank window, in the params' real dtype.
    doppler_window: np.ndarray
    #: (K,) matched-filter frequency response of the transmit replica.
    replica_freq: np.ndarray
    #: (K,) reference cells available at each range index (edge-aware).
    cfar_counts: np.ndarray
    #: (K,) CA-CFAR alpha for the design Pfa at each range index.
    cfar_alpha: np.ndarray
    #: (K,) ``alpha / counts`` — the factor CFAR multiplies window sums by.
    cfar_factor: np.ndarray

    @classmethod
    def build(cls, params: STAPParams, steering: np.ndarray) -> "KernelPlan":
        """Compute every plan entry from scratch (once per run)."""
        steering = np.asarray(steering, dtype=complex)
        if steering.shape != (params.num_channels, params.num_beams):
            raise ConfigurationError(
                f"steering shape {steering.shape} != "
                f"({params.num_channels}, {params.num_beams})"
            )
        phases = stagger_phase(params, np.arange(params.num_doppler))
        counts = reference_cell_counts(params)
        alpha = cfar_threshold_factor(counts, params.cfar_pfa)
        win_len = params.num_pulses - params.stagger
        return cls(
            params=params,
            steering=steering,
            easy_quiescent=quiescent_weights(steering),
            stagger_phases=phases,
            hard_quiescent=quiescent_weights_stacked(steering, phases),
            doppler_window=window_by_name(params.window, win_len).astype(
                params.real_dtype
            ),
            replica_freq=replica_response(params),
            cfar_counts=counts,
            cfar_alpha=alpha,
            cfar_factor=alpha / counts,
        )

    # -- cold-start weights ------------------------------------------------------
    # Until an azimuth's first training, every path beamforms with these.
    def cold_easy_weights(self, bins) -> np.ndarray:
        """Fresh easy weights, ``bins.shape + (J, M)``: :attr:`easy_quiescent`
        for each absolute easy Doppler bin in ``bins``."""
        shape = np.shape(bins) + self.easy_quiescent.shape
        return np.broadcast_to(self.easy_quiescent, shape).copy()

    def cold_hard_weights(self, unit_bins) -> np.ndarray:
        """Fresh hard weights, ``unit_bins.shape + (2J, M)``: ``unit_bins``
        holds the absolute Doppler bin of each (segment, bin) unit, in any
        shape (the (S, B) grid beamforming takes, or a weight rank's flat
        unit axis)."""
        return self.hard_quiescent[np.asarray(unit_bins)]


def build_kernel_plan(params: STAPParams, steering: np.ndarray) -> KernelPlan:
    """Functional spelling of :meth:`KernelPlan.build`."""
    return KernelPlan.build(params, steering)


@lru_cache(maxsize=8)
def default_plan(params: STAPParams) -> KernelPlan:
    """The plan for the *default* steering matrix, memoized per params.

    Default-steering plans are pure functions of ``params`` (a frozen,
    hashable dataclass), so repeated pipeline builds — the executor's
    warm-started workers, ``run_parallel``, back-to-back test pipelines —
    share one construction.  Treat the result as read-only, like every
    plan."""
    from repro.stap.reference import default_steering

    return KernelPlan.build(params, default_steering(params))
