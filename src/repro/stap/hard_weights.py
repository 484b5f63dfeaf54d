"""Hard-bin weight computation (pipeline task 2: "hard weight").

Hard Doppler bins compete with mainbeam clutter, so both staggered Doppler
windows (2J channels) are adapted jointly, with *separate weights for six
consecutive range intervals* (Section 3).  Each range segment offers only
one sixth of the range extent for training, so the recursion "dealt with the
paucity of data by using past looks at the same azimuth, exponentially
forgotten, as independent, identically distributed estimates of the clutter"
— a recursive QR update with forgetting factor 0.6 (Appendix B).

The per-(segment, bin) recursion state is the 2J x 2J R factor; an update
appends ``hard_train_samples`` fresh rows via the block QR update of
:func:`repro.stap.lsq.qr_append_rows`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics_registry, record_kernel
from repro.radar.parameters import STAPParams
from repro.stap.easy_weights import select_range_samples
from repro.stap.lsq import (
    qr_append_rows,
    qr_append_rows_stacked,
    solve_constrained,
    solve_constrained_stacked,
)
from repro.stap.threads import split_batch
from repro.stap.workspace import scratch

#: Fewest units per thread worth a split, as work in (2J)^3 units: 16
#: paper-scale (2J = 32) units.  On a 2-CPU host a split of 12 such
#: units per thread ran slower than one thread and 16 ran faster, so a
#: hard weight rank of Table 7 case 3 (12 units) stays on one thread;
#: small-scale units (2J = 16) need 8x as many.
SPLIT_MIN_WORK = 16 * 32**3


def _split_units(run, state: np.ndarray) -> None:
    """Split ``run(lo, hi)`` over the unit axis of a (U, 2J, 2J) state."""
    split_batch(run, state.shape[0], -(-SPLIT_MIN_WORK // state.shape[1] ** 3))


def extract_hard_training(
    staggered: np.ndarray, params: STAPParams, workspace=None
) -> np.ndarray:
    """Training blocks for every (segment, hard bin) from one staggered CPI.

    Returns (num_segments, N_hard, hard_train_samples, 2J): per segment and
    hard bin, range samples drawn evenly across that segment, using *both*
    Doppler windows ("hard weight computation employs range samples from the
    entire staggered CPI", Section 5.2).

    As with the easy training, rows are **conjugated** snapshots so that the
    least-squares residual equals the ``w^H x`` beamformer output on the
    training clutter.

    With a ``workspace`` the block is its buffer, valid until the next
    call with it: :meth:`HardWeightComputer.update` absorbs the rows at
    once, so nothing needs them longer.
    """
    out = scratch(
        workspace,
        "hard_weights.training",
        (
            params.num_segments,
            params.num_hard_doppler,
            params.hard_train_samples,
            params.num_staggered_channels,
        ),
        staggered.dtype,
    )
    bins = np.asarray(params.hard_bins)[:, None]
    for seg_idx, seg in enumerate(params.segment_slices):
        seg_len = seg.stop - seg.start
        count = min(params.hard_train_samples, seg_len)
        sel = seg.start + select_range_samples(seg_len, count)
        # The separated advanced indices put the broadcast (bins, rows)
        # axes first: one gather yields the (N_hard, count, 2J) block;
        # rows beyond ``count`` are zero padding.
        np.conjugate(staggered[bins, :, sel[None, :]], out=out[seg_idx, :, :count])
        out[seg_idx, :, count:] = 0
    return out


def update_r_units(
    state: np.ndarray, training: np.ndarray, forget: float, workspace=None
) -> None:
    """Absorb training rows into a flat axis of R factors, in place.

    ``state``: (U, 2J, 2J) R factors, one per (segment, bin) unit;
    ``training``: (U, rows, 2J) conjugated training rows.  One stacked
    block-QR update replaces U per-unit recursions — the kernel behind
    :class:`HardWeightComputer`.  Large unit
    axes split across the kernel threads (:mod:`repro.stap.threads`); each
    unit's factorization is independent of its batch, so the result is
    the same for any split.  With a ``workspace`` the stacked systems are
    built in its buffer, each thread filling its own units' slice.
    """
    start = perf_counter() if metrics_registry.enabled else None
    num_units, rows, n2 = training.shape
    stacked = scratch(workspace, "hard_weights.stacked", (num_units, n2 + rows, n2),
                      np.result_type(state.dtype, training.dtype))

    def update(lo: int, hi: int) -> None:
        state[lo:hi] = qr_append_rows_stacked(
            state[lo:hi], training[lo:hi], forget=forget, stacked=stacked[lo:hi]
        )

    _split_units(update, state)
    if start is not None:
        from repro.stap.flops import qr_flops

        # Table 1 charges the recursion's QR with the constraint rows too
        # (see repro.stap.flops.hard_weight_flops); mirror that accounting
        # here so update + solve sum to the paper's per-unit count.
        flops = num_units * qr_flops(n2 + rows + n2 // 2, n2)
        record_kernel("hard_weight", perf_counter() - start, flops)


def hard_constraint_blocks(
    state: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
    workspace=None,
) -> np.ndarray:
    """Phase-coupled constraint blocks for a flat axis of units.

    ``state``: (U, 2J, 2J) R factors; ``phases``: (U,) stagger phases.
    Returns (U, J, 2J) rows ``scale_u * [bw*I | fw*conj(p_u)*I]`` built by
    broadcast + diagonal index assignment — no per-unit ``hstack``.  The
    scale is the mean magnitude of each unit's R diagonal, clamped to 1
    when the recursion has absorbed nothing yet.  With a ``workspace``
    the blocks are its buffer.
    """
    num_units, n2, _ = state.shape
    J = n2 // 2
    diags = np.abs(np.diagonal(state, axis1=1, axis2=2))
    scales = np.mean(diags, axis=1)
    scales[scales <= 0.0] = 1.0
    constraints = scratch(
        workspace, "hard_weights.constraints", (num_units, J, n2), complex
    )
    constraints.fill(0)
    diag = np.arange(J)
    constraints[:, diag, diag] = (scales * beam_weight)[:, None]
    coupling = scales * (freq_weight * np.conj(np.asarray(phases)))
    constraints[:, diag, J + diag] = coupling[:, None]
    return constraints


def compute_hard_weights_units(
    state: np.ndarray,
    steering: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
    workspace=None,
) -> np.ndarray:
    """Hard weights for a flat axis of units: (U, 2J, 2J) -> (U, 2J, M).

    ``phases``: (U,) stagger phase of each unit's bin.  The constraint
    block couples the two Doppler windows: for bin ``n`` with stagger
    phase ``p_n``, the J rows ``[bw*I | fw*conj(p_n)*I]`` with right-hand
    side ``w_s`` pull the solution toward the coherent staggered combiner
    ``[w_s; p_n w_s] / 2`` while the data R factor supplies clutter nulls.

    One stacked constrained solve over all units, split across the kernel
    threads like :func:`update_r_units`; bit identical to the per-unit
    loop (see :func:`compute_hard_weights_loop`) for any split.  With a
    ``workspace`` the constraint blocks and stacked systems are its
    buffers; the returned weights are always fresh, since callers keep
    them for the next CPI.
    """
    start = perf_counter() if metrics_registry.enabled else None
    num_units, n2 = state.shape[0], state.shape[1]
    constraints = hard_constraint_blocks(
        state, phases, beam_weight, freq_weight, workspace
    )
    # The update's buffer too: a computer never updates and solves at once.
    stacked = scratch(workspace, "hard_weights.stacked",
                      (num_units, n2 + constraints.shape[1], n2), complex)
    weights = np.empty((num_units, n2, steering.shape[1]), dtype=complex)

    def solve(lo: int, hi: int) -> None:
        weights[lo:hi] = solve_constrained_stacked(
            state[lo:hi], constraints[lo:hi], steering, stacked=stacked[lo:hi]
        )

    _split_units(solve, state)
    if start is not None:
        # The back-substitution share of Table 1's per-unit count; the QR
        # share is credited to update_r_units (see comment there).
        flops = num_units * steering.shape[1] * 3.0 * n2 * n2
        record_kernel("hard_weight", perf_counter() - start, flops)
    return weights


def update_r_block_loop(
    state: np.ndarray, training: np.ndarray, forget: float
) -> None:
    """Per-unit loop reference for :func:`update_r_units` over an (S, B)
    grid of units (ground truth)."""
    num_segments, num_bins = state.shape[:2]
    for seg in range(num_segments):
        for bin_idx in range(num_bins):
            state[seg, bin_idx] = qr_append_rows(
                state[seg, bin_idx], training[seg, bin_idx], forget=forget
            )


def compute_hard_weights_loop(
    state: np.ndarray,
    steering: np.ndarray,
    phases: np.ndarray,
    beam_weight: float,
    freq_weight: float,
) -> np.ndarray:
    """Per-unit loop reference for :func:`compute_hard_weights_units` over
    an (S, B) grid of units, ``phases`` per bin: (S, B, 2J, 2J) ->
    (S, B, 2J, M).

    Retained as ground truth for the batched kernel's tests and for
    measuring the batching win; one constraint build + constrained solve
    per (segment, bin), exactly the pre-batching implementation.
    """
    num_segments, num_bins, n2, _ = state.shape
    J = n2 // 2
    M = steering.shape[1]
    identity = np.eye(J, dtype=complex)
    weights = np.empty((num_segments, num_bins, n2, M), dtype=complex)
    for seg in range(num_segments):
        for bin_idx in range(num_bins):
            r_data = state[seg, bin_idx]
            scale = float(np.mean(np.abs(np.diag(r_data))))
            if scale <= 0.0:
                scale = 1.0
            constraint = scale * np.hstack(
                [
                    beam_weight * identity,
                    freq_weight * np.conj(phases[bin_idx]) * identity,
                ]
            )
            weights[seg, bin_idx] = solve_constrained(r_data, constraint, steering)
    return weights


def segment_grid(params: STAPParams, bins) -> np.ndarray:
    """(S, B) absolute bin of every (segment, bin) unit of ``bins``: the
    unit layout of :func:`extract_hard_training` and of the weights
    :func:`repro.stap.beamform.beamform_hard` takes."""
    return np.tile(np.asarray(bins), (params.num_segments, 1))


class HardWeightComputer:
    """Stateful hard-bin weight computation: recursive QR per (segment, bin)
    unit.

    One computer serves any set of units: ``unit_bins`` holds each unit's
    absolute hard Doppler bin, in any shape.  The default is the full
    (S, N_hard) grid of :func:`extract_hard_training`, as the sequential
    reference and the real runtime use it; a hard weight rank passes its
    flat unit axis.  Training comes in, and weights go out, in that shape
    (plus the trailing row/channel axes).  Units are independent, so a
    computer over a subset yields the full computer's weights for those
    units, bit for bit.
    """

    def __init__(self, plan, unit_bins=None, workspace=None):
        """``plan``: the run's :class:`~repro.stap.plan.KernelPlan` (steering
        matrix, stagger phases and cold-start weights).  ``workspace``: an
        optional :class:`~repro.stap.workspace.Workspace` of the thread
        that drives this computer, for the update's and the solve's
        scratch; without one they are fresh on every call."""
        params = plan.params
        if unit_bins is None:
            unit_bins = segment_grid(params, params.hard_bins)
        self.params = params
        self.plan = plan
        self.unit_bins = np.asarray(unit_bins)
        #: Per-unit expected phase of the late Doppler window w.r.t. the
        #: early one; the frequency-constraint factor of Appendix B.
        self._phases = plan.stagger_phases[self.unit_bins.ravel()]
        # azimuth -> (U, 2J, 2J) R factors, flat over the units.
        self._r_state: Dict[int, np.ndarray] = {}
        self._workspace = workspace

    # -- state ---------------------------------------------------------------
    def _state_for(self, azimuth: int) -> np.ndarray:
        state = self._r_state.get(azimuth)
        if state is None:
            n2 = self.params.num_staggered_channels
            state = np.zeros((self.unit_bins.size, n2, n2), dtype=complex)
            self._r_state[azimuth] = state
        return state

    def has_history(self, azimuth: int = 0) -> bool:
        """True once at least one update has been absorbed for ``azimuth``."""
        state = self._r_state.get(azimuth)
        return state is not None and bool(np.any(state))

    def update(self, training: np.ndarray, azimuth: int = 0) -> None:
        """Absorb one CPI's training rows, ``unit_bins.shape + (rows, 2J)``
        (for the default grid: the output of :func:`extract_hard_training`).
        The rows are absorbed before this returns; nothing keeps them."""
        params = self.params
        rows, n2 = params.hard_train_samples, params.num_staggered_channels
        expected = self.unit_bins.shape + (rows, n2)
        training = np.asarray(training)
        if training.shape != expected:
            raise ConfigurationError(
                f"hard training shape {training.shape} != {expected}"
            )
        update_r_units(
            self._state_for(azimuth),
            training.reshape(-1, rows, n2),
            params.forgetting_factor,
            self._workspace,
        )

    # -- weights -------------------------------------------------------------
    def compute_weights(self, azimuth: int = 0) -> np.ndarray:
        """Weights for the next CPI: ``unit_bins.shape + (2J, M)``.

        A unit whose R factor has absorbed nothing but zeros gets the
        plan's coherent staggered quiescent weights ``[w_s; p_n w_s] /
        sqrt(2)``; the others solve the constrained least squares.
        """
        params = self.params
        shape = self.unit_bins.shape + (params.num_staggered_channels,
                                        params.num_beams)
        state = self._r_state.get(azimuth)
        idle = None if state is None else ~np.any(state, axis=(1, 2))
        if idle is None or idle.all():
            return self.plan.cold_hard_weights(self.unit_bins)
        weights = compute_hard_weights_units(
            state,
            self.plan.steering,
            self._phases,
            params.beam_constraint_weight,
            params.freq_constraint_weight,
            self._workspace,
        )
        if idle.any():
            weights[idle] = self.plan.cold_hard_weights(self.unit_bins.ravel()[idle])
        return weights.reshape(shape)
