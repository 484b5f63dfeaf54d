"""Easy-bin weight computation (pipeline tasks 1: "easy weight").

Easy Doppler bins are well separated from mainbeam clutter, so a single
Doppler window (the first J staggered channels) and a spatial-only null
suffice — "Post Doppler Adaptive Beamforming ... quite effective at a
fraction of the computational cost" (Section 3).

Training: "the entire training set was drawn from three preceding CPIs for
application to the next CPI in this azimuth beam position" — a sliding
window of the last three visits, ``easy_train_per_cpi`` range samples each,
followed by "a regular (non-recursive) QR decomposition ... followed by
block update to add in the beam shape constraints" (Section 3).
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.stap.lsq import (
    qr_factor,
    qr_factor_stacked,
    solve_constrained,
    solve_constrained_stacked,
)
from repro.stap.workspace import scratch

#: Number of preceding CPIs whose samples form the easy training set.
HISTORY_LENGTH = 3


def select_range_samples(num_ranges: int, count: int) -> np.ndarray:
    """Indices of ``count`` range cells spaced evenly over ``[0, num_ranges)``.

    Used both here and by the Doppler task's *data collection* step — the
    sender gathers exactly these cells so no redundant data crosses the
    network (Figure 6b).
    """
    if count > num_ranges:
        raise ConfigurationError(
            f"cannot draw {count} training samples from {num_ranges} range cells"
        )
    return np.linspace(0, num_ranges, count, endpoint=False).astype(int)


def extract_easy_training(staggered: np.ndarray, params: STAPParams) -> np.ndarray:
    """Training block for every easy bin from one staggered CPI.

    Parameters
    ----------
    staggered:
        Doppler-filtered cube (N, 2J, K).

    Returns
    -------
    numpy.ndarray
        (N_easy, easy_train_per_cpi, J), freshly allocated because the
        computer's history keeps it: per easy bin, the selected range
        samples of the *first* Doppler window ("only range samples in the
        first half of the staggered CPI data are used", Section 5.2).

        Rows are **conjugated** snapshots: with beamforming defined as
        ``y = w^H x``, the residual of the least-squares system ``X w = 0``
        then equals the beamformer's clutter output, so minimizing it
        places the nulls where the output needs them.
    """
    J = params.num_channels
    sel = select_range_samples(params.num_ranges, params.easy_train_per_cpi)
    bins = np.asarray(params.easy_bins)
    # One gather of just the selected cells; the advanced indices, split by
    # the slice, place the broadcast (bins, rows) axes first.
    block = staggered[bins[:, None], :J, sel[None, :]]
    np.conjugate(block, out=block)
    return block


def data_level(training: np.ndarray, workspace=None) -> np.ndarray:
    """Per-bin mean magnitude of (B, rows, J) training: shape (B,).

    The summation order is fixed, whatever the training's memory order or
    the number of bins beside it: each row's channels are summed pairwise
    (NumPy's sum over a contiguous axis), then the rows are accumulated in
    order.  So any block of bins, however it was assembled, gets the
    reference's bits.
    """
    num_bins, rows, J = training.shape
    magnitudes = scratch(workspace, "easy_weights.magnitudes", training.shape,
                         np.finfo(training.dtype).dtype)
    np.abs(training, out=magnitudes)
    row_sums = scratch(workspace, "easy_weights.row_sums", (num_bins, rows),
                       magnitudes.dtype)
    np.sum(magnitudes, axis=2, out=row_sums)
    np.cumsum(row_sums, axis=1, out=row_sums)
    return row_sums[:, -1] / (rows * J)


def compute_easy_weights(
    stacked: np.ndarray, steering: np.ndarray, kappa: float, workspace=None
) -> np.ndarray:
    """Easy weights from stacked training: (B, n, J) -> (B, J, M).

    ``stacked`` holds, per Doppler bin, the concatenated (conjugated)
    training rows of up to three CPIs.  This is the kernel behind
    :class:`EasyWeightComputer`, whatever block of bins it serves.

    All bins dispatch through one stacked QR and one stacked constrained
    solve (:func:`repro.stap.lsq.qr_factor_stacked` /
    :func:`repro.stap.lsq.solve_constrained_stacked`); the results are bit
    identical to the retained per-bin reference
    :func:`compute_easy_weights_loop`.  With a ``workspace`` the scratch
    arrays are its buffers; the returned weights are always fresh.
    """
    stacked = np.asarray(stacked)
    if stacked.ndim != 3:
        raise ConfigurationError(
            f"training stack must be (bins, rows, J), got shape {stacked.shape}"
        )
    num_bins, rows, J = stacked.shape
    if num_bins == 0:
        return np.empty((0, J, steering.shape[1]), dtype=complex)
    start = perf_counter() if metrics_registry.enabled else None
    # The diagonal constraint is the only per-bin part of the constraint
    # block, so it is built by index assignment instead of B dense J x J
    # materializations.
    scales = data_level(stacked, workspace)
    scales[scales <= 0.0] = 1.0
    # Regular QR of the training data, then the constraint block is
    # appended (the "block update to add in the beam shape constraints").
    r_data = qr_factor_stacked(stacked)
    constraints = scratch(workspace, "easy_weights.constraints", (num_bins, J, J),
                          complex)
    constraints.fill(0)
    diag = np.arange(J)
    constraints[:, diag, diag] = (kappa * scales)[:, None]
    weights = solve_constrained_stacked(
        r_data, constraints, steering,
        stacked=scratch(workspace, "easy_weights.solve", (num_bins, 2 * J, J), complex),
    )
    if start is not None:
        from repro.stap.flops import qr_flops

        M = steering.shape[1]
        per_bin = qr_flops(rows, J) + M * (4.0 * J * J + 6.0 * J)
        record_kernel(
            "easy_weight", perf_counter() - start, num_bins * per_bin
        )
    return weights


def compute_easy_weights_loop(
    stacked: np.ndarray, steering: np.ndarray, kappa: float
) -> np.ndarray:
    """Per-bin loop reference for :func:`compute_easy_weights`.

    Retained as the ground truth the batched kernel is tested against
    (and for profiling the batching win); one QR + constrained solve per
    Doppler bin, exactly the pre-batching implementation.
    """
    stacked = np.asarray(stacked)
    if stacked.ndim != 3:
        raise ConfigurationError(
            f"training stack must be (bins, rows, J), got shape {stacked.shape}"
        )
    num_bins, _rows, J = stacked.shape
    identity = np.eye(J, dtype=complex)
    weights = np.empty((num_bins, J, steering.shape[1]), dtype=complex)
    for idx in range(num_bins):
        data = stacked[idx]
        scale = float(data_level(stacked[idx:idx + 1])[0])
        if scale <= 0.0:
            scale = 1.0
        r_data = qr_factor(data)
        constraint = kappa * scale * identity
        weights[idx] = solve_constrained(r_data, constraint, steering)
    return weights


class EasyWeightComputer:
    """Stateful easy-bin weight computation with per-azimuth history.

    One computer serves any block of easy bins: ``bins`` holds their
    absolute Doppler ids (default: every easy bin, as the sequential
    reference and the real runtime use it; an easy weight rank passes its
    own block).  Each bin's weights depend only on that bin's training, so
    a computer over a block yields the full computer's weights for those
    bins, bit for bit.
    """

    def __init__(self, plan, bins=None, workspace=None):
        """``plan``: the run's :class:`~repro.stap.plan.KernelPlan` (steering
        matrix and cold-start weights).  ``workspace``: an optional
        :class:`~repro.stap.workspace.Workspace` of the thread that drives
        this computer, for the stacked history and the solve's scratch;
        without one they are fresh on every call."""
        self.params = plan.params
        self.plan = plan
        self.bins = np.asarray(self.params.easy_bins if bins is None else bins)
        self._history: Dict[int, Deque[np.ndarray]] = {}
        self._workspace = workspace

    # -- state -----------------------------------------------------------------
    def push_training(self, training: np.ndarray, azimuth: int = 0) -> None:
        """Record one CPI's (B, rows, J) training block for this computer's
        bins (the rows of :func:`extract_easy_training`).  The block is kept,
        not copied, for the next :data:`HISTORY_LENGTH` visits."""
        params = self.params
        expected = (len(self.bins), params.easy_train_per_cpi, params.num_channels)
        training = np.asarray(training)
        if training.shape != expected:
            raise ConfigurationError(
                f"easy training shape {training.shape} != {expected}"
            )
        history = self._history.setdefault(azimuth, deque(maxlen=HISTORY_LENGTH))
        history.append(training)

    def history_depth(self, azimuth: int = 0) -> int:
        """Number of CPIs of training currently held for ``azimuth``."""
        return len(self._history.get(azimuth, ()))

    # -- weights -------------------------------------------------------------
    def compute_weights(self, azimuth: int = 0) -> np.ndarray:
        """Weights for the *next* CPI in this azimuth: (B, J, M).

        Before any training exists, returns the plan's quiescent
        (steering-only) weights so the chain degrades to conventional
        beamforming.
        """
        history = self._history.get(azimuth)
        if not history:
            return self.plan.cold_easy_weights(self.bins)
        first = history[0]
        rows = sum(block.shape[1] for block in history)
        stacked = scratch(self._workspace, "easy_weights.stacked",
                          (first.shape[0], rows, first.shape[2]), first.dtype)
        np.concatenate(list(history), axis=1, out=stacked)
        return compute_easy_weights(
            stacked, self.plan.steering, self.params.beam_constraint_weight,
            self._workspace,
        )
