"""Shared linear-algebra kernels: QR factorization, block updates, solves.

The weight-computation algorithm (Appendix A) is a *beam-constrained least
squares* problem: find ``w`` minimizing ``|| [X; kI] w - [0; k ws] ||``.
Because the data matrix ``X`` is independent of the steering vector, its QR
factorization is computed once and reused for all receive beams — "the QR
factorization of M needs to be performed only once for a given data set"
— which these kernels make explicit:

* :func:`qr_factor` — R factor of a (possibly tall) complex matrix;
* :func:`qr_append_rows` — block QR update: R factor of ``[R_old; rows]``
  without revisiting old data (the recursion behind the hard-bin weights);
* :func:`solve_constrained` — given the data R factor, apply the constraint
  block and back-substitute for every beam.

Each kernel also has a ``*_stacked`` variant operating on a leading batch
axis (one Doppler bin or (segment, bin) unit per slice).  A weight task at
paper scale performs hundreds of these small factorizations per CPI;
dispatching them through one stacked LAPACK call instead of a Python loop
is what moves the functional hot path from interpreter-bound to
LAPACK-bound.  The stacked variants factor each slice independently —
``np.linalg.qr`` loops over the same ``geqrf``/``ungqr`` kernels that the
per-matrix functions call — so their results do not depend on how slices
are grouped into batches, which keeps the parallel tasks (batching their
local bins) bit-identical to the sequential reference (batching all bins).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.errors import ConfigurationError


def qr_factor(matrix: np.ndarray) -> np.ndarray:
    """Upper-trapezoidal R factor of ``matrix`` (economy QR, n x n output).

    For an m x n input with m >= n, returns the n x n upper-triangular R
    with ``R^H R == matrix^H matrix``.  For m < n the top m rows are the
    R factor and the result is zero-padded to n x n so that callers can
    treat R as a fixed-size recursion state.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ConfigurationError(f"qr_factor expects a matrix, got ndim={matrix.ndim}")
    m, n = matrix.shape
    if m == 0:
        return np.zeros((n, n), dtype=complex)
    r = scipy.linalg.qr(matrix, mode="r")[0]
    if r.shape[0] < n:
        out = np.zeros((n, n), dtype=r.dtype)
        out[: r.shape[0], :] = r
        return out
    return np.ascontiguousarray(r[:n, :])


def qr_append_rows(r_old: np.ndarray, rows: np.ndarray, forget: float = 1.0) -> np.ndarray:
    """Block QR update: R factor of ``[forget * R_old; rows]``.

    This is the "block update form of the QR decomposition" of Section 3.
    With ``forget < 1`` old data is exponentially down-weighted — the
    recursive hard-bin training with forgetting factor 0.6 (Appendix B's
    ``forgettingFactor``).

    The information-matrix identity being maintained::

        R_new^H R_new = forget^2 * R_old^H R_old + rows^H rows
    """
    r_old = np.asarray(r_old)
    rows = np.atleast_2d(np.asarray(rows))
    n = r_old.shape[1]
    if r_old.shape != (n, n):
        raise ConfigurationError(f"R state must be square, got {r_old.shape}")
    if rows.shape[1] != n:
        raise ConfigurationError(
            f"appended rows have {rows.shape[1]} columns, expected {n}"
        )
    if not (0.0 < forget <= 1.0):
        raise ConfigurationError(f"forget factor must be in (0,1], got {forget}")
    stacked = np.vstack([forget * r_old, rows])
    return qr_factor(stacked)


def solve_constrained(
    r_data: np.ndarray,
    constraint: np.ndarray,
    steering_rhs: np.ndarray,
    normalize: bool = True,
) -> np.ndarray:
    """Solve the beam-constrained least-squares problem for every beam.

    Minimizes, independently per beam ``m``::

        || [R_data; C] w_m - [0; rhs[:, m]] ||

    where ``R_data`` (n x n) summarizes the clutter training data and ``C``
    is the constraint block (identity-like rows scaled by the data level —
    Appendix A Figure 13).  Returns weights of shape (n, num_beams),
    optionally normalized to unit length per beam ("we normalize the
    resulting weight vector to unit length").

    The solve costs one QR of the small stacked system plus a triangular
    back substitution per beam; rank deficiency (early CPIs, before the
    recursion has accumulated enough looks) falls back to ``lstsq``.
    """
    r_data = np.asarray(r_data)
    constraint = np.atleast_2d(np.asarray(constraint))
    steering_rhs = np.atleast_2d(np.asarray(steering_rhs))
    n = r_data.shape[1]
    if constraint.shape[1] != n:
        raise ConfigurationError(
            f"constraint has {constraint.shape[1]} columns, expected {n}"
        )
    if steering_rhs.shape[0] != constraint.shape[0]:
        raise ConfigurationError(
            "steering rhs rows must match constraint rows: "
            f"{steering_rhs.shape[0]} vs {constraint.shape[0]}"
        )
    stacked = np.vstack([r_data, constraint])
    rhs = np.vstack(
        [
            np.zeros((r_data.shape[0], steering_rhs.shape[1]), dtype=complex),
            steering_rhs.astype(complex),
        ]
    )
    # One QR of the stacked system, shared across beams.
    q, r = scipy.linalg.qr(stacked, mode="economic")
    qtb = q.conj().T @ rhs
    diag = np.abs(np.diag(r))
    if diag.size < n or np.any(diag < 1e-10 * max(diag.max(initial=0.0), 1.0)):
        weights, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    else:
        weights = scipy.linalg.solve_triangular(r, qtb)
    if normalize:
        norms = np.linalg.norm(weights, axis=0)
        norms[norms == 0.0] = 1.0
        weights = weights / norms
    return weights


def qr_factor_stacked(matrices: np.ndarray) -> np.ndarray:
    """R factors of a stack of matrices: (B, m, n) -> (B, n, n).

    The batched form of :func:`qr_factor`: one ``np.linalg.qr`` call over
    the stack instead of B Python-level factorizations.  Slices with
    m < n are zero-padded to n x n exactly as in the per-matrix kernel.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim != 3:
        raise ConfigurationError(
            f"qr_factor_stacked expects (batch, m, n), got ndim={matrices.ndim}"
        )
    batch, m, n = matrices.shape
    if batch == 0:
        return np.zeros((0, n, n), dtype=complex)
    if m == 0:
        return np.zeros((batch, n, n), dtype=complex)
    r = np.linalg.qr(matrices, mode="r")
    if r.shape[1] < n:
        out = np.zeros((batch, n, n), dtype=r.dtype)
        out[:, : r.shape[1], :] = r
        return out
    return np.ascontiguousarray(r[:, :n, :])


def qr_append_rows_stacked(
    r_old: np.ndarray,
    rows: np.ndarray,
    forget: float = 1.0,
    stacked: np.ndarray | None = None,
) -> np.ndarray:
    """Batched block QR update: R factors of ``[forget * R_old; rows]``.

    ``r_old``: (B, n, n) R factors; ``rows``: (B, m, n) appended rows.
    One stacked factorization replaces B calls to :func:`qr_append_rows`
    while maintaining the same information-matrix identity per slice.
    ``stacked``: optional (B, n + m, n) buffer the system is built in
    (fresh when None).
    """
    r_old = np.asarray(r_old)
    rows = np.asarray(rows)
    if r_old.ndim != 3 or r_old.shape[1] != r_old.shape[2]:
        raise ConfigurationError(
            f"stacked R state must be (batch, n, n), got {r_old.shape}"
        )
    batch, n = r_old.shape[0], r_old.shape[2]
    if rows.ndim != 3 or rows.shape[0] != batch or rows.shape[2] != n:
        raise ConfigurationError(
            f"appended rows shape {rows.shape} incompatible with R state "
            f"{r_old.shape}"
        )
    if not (0.0 < forget <= 1.0):
        raise ConfigurationError(f"forget factor must be in (0,1], got {forget}")
    if stacked is None:
        stacked = np.empty((batch, n + rows.shape[1], n),
                           dtype=np.result_type(r_old.dtype, rows.dtype))
    np.multiply(r_old, forget, out=stacked[:, :n])
    stacked[:, n:] = rows
    return qr_factor_stacked(stacked)


def solve_constrained_stacked(
    r_data: np.ndarray,
    constraints: np.ndarray,
    steering_rhs: np.ndarray,
    normalize: bool = True,
    stacked: np.ndarray | None = None,
) -> np.ndarray:
    """Batched beam-constrained least squares: one solve per stack slice.

    ``r_data``: (B, n, n) data R factors; ``constraints``: (B, c, n)
    per-slice constraint blocks; ``steering_rhs``: (c, M) right-hand side
    shared by every slice (the receive-beam steering matrix).  Returns
    (B, n, M) weights.  ``stacked``: optional complex (B, n + c, n) buffer
    the system ``[R_data; C]`` is built in (fresh when None).

    One stacked QR of the B stacked systems plus one batched triangular
    solve replace B calls to :func:`solve_constrained`.  The right-hand
    side is zero above the constraint rows, so ``Q^H rhs`` takes only Q's
    constraint rows.  Slices whose stacked R factor is rank deficient
    (early CPIs) fall back to ``lstsq`` individually — the same
    condition, threshold, and fallback as the per-matrix kernel, applied
    per slice.

    Bit-identity note: with a multi-column right-hand side (every pipeline
    call — the steering matrix always carries ``M >= 2`` beams) the result
    matches :func:`solve_constrained` bit for bit, because both paths run
    the same ``geqrf``/``gemm``/back-substitution kernels per slice.  A
    single-column rhs may differ by a few ULP: BLAS dispatches ``gemv``
    instead of ``gemm`` for one column, and the dot-product reduction
    order changes.
    """
    r_data = np.asarray(r_data)
    constraints = np.asarray(constraints)
    steering_rhs = np.atleast_2d(np.asarray(steering_rhs))
    if r_data.ndim != 3 or constraints.ndim != 3:
        raise ConfigurationError(
            "stacked solve expects 3-D r_data and constraints, got "
            f"{r_data.shape} and {constraints.shape}"
        )
    batch, rows_data, n = r_data.shape
    if constraints.shape[0] != batch or constraints.shape[2] != n:
        raise ConfigurationError(
            f"constraints shape {constraints.shape} incompatible with "
            f"r_data {r_data.shape}"
        )
    if steering_rhs.shape[0] != constraints.shape[1]:
        raise ConfigurationError(
            "steering rhs rows must match constraint rows: "
            f"{steering_rhs.shape[0]} vs {constraints.shape[1]}"
        )
    num_beams = steering_rhs.shape[1]
    if batch == 0:
        return np.zeros((0, n, num_beams), dtype=complex)
    if stacked is None:
        stacked = np.empty((batch, rows_data + constraints.shape[1], n),
                           dtype=complex)
    stacked[:, :rows_data] = r_data
    stacked[:, rows_data:] = constraints
    # The per-matrix kernel's right-hand side: zero above the constraints.
    rhs = np.zeros((stacked.shape[1], num_beams), dtype=complex)
    rhs[rows_data:] = steering_rhs
    # One stacked QR shared across beams, as in the per-matrix kernel.
    q, r = np.linalg.qr(stacked, mode="reduced")
    if min(n, constraints.shape[1]) > 1:
        # Q^H rhs from Q's constraint rows alone.  Both products are then
        # matrix products, whose kernels add the zero rows' exact zeros
        # without changing a bit; a vector-shaped product takes another
        # kernel, whose rounding depends on them.
        qtb = np.matmul(q[:, rows_data:].conj().transpose(0, 2, 1), rhs[rows_data:])
    else:
        qtb = np.matmul(q.conj().transpose(0, 2, 1), rhs)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    floor = 1e-10 * np.maximum(diag.max(axis=1, initial=0.0), 1.0)
    degenerate = (diag.shape[1] < n) | np.any(diag < floor[:, None], axis=1)
    # LU of an upper-triangular matrix pivots nowhere, so the batched
    # solve reduces to the same back substitution as solve_triangular.
    if not np.any(degenerate):
        weights = np.linalg.solve(r, qtb)
    else:
        weights = np.empty((batch, n, num_beams), dtype=complex)
        healthy = ~degenerate
        if np.any(healthy):
            weights[healthy] = np.linalg.solve(r[healthy], qtb[healthy])
        for idx in np.flatnonzero(degenerate):
            weights[idx], *_ = np.linalg.lstsq(stacked[idx], rhs, rcond=None)
    if normalize:
        # Match the per-matrix kernel's summation order exactly.  Its norm
        # reduces over the *contiguous* axis of solve_triangular's
        # Fortran-ordered output (pairwise summation); lstsq returns
        # C-ordered weights whose axis-0 reduction is strided/sequential.
        # Reproducing each branch's order keeps the stacked path
        # bit-identical, not merely close.
        norms = np.linalg.norm(
            np.ascontiguousarray(weights.transpose(0, 2, 1)), axis=2
        )
        if np.any(degenerate):
            norms[degenerate] = np.linalg.norm(weights[degenerate], axis=1)
        norms[norms == 0.0] = 1.0
        np.divide(weights, norms[:, None, :], out=weights)
    return weights


def quiescent_weights_stacked(steering: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-bin coherent staggered quiescent weights: (B,) phases -> (B, 2J, M).

    The batched form of ``quiescent_weights(steering, copies=2,
    phases=[1.0, p])`` over a vector of stagger phases — one broadcast
    multiply and one batched normalization instead of a per-bin loop.
    """
    steering = np.atleast_2d(np.asarray(steering, dtype=complex))
    phases = np.asarray(phases)
    if phases.ndim != 1:
        raise ConfigurationError(f"phases must be 1-D, got shape {phases.shape}")
    J, M = steering.shape
    weights = np.empty((phases.shape[0], 2 * J, M), dtype=complex)
    weights[:, :J, :] = steering
    weights[:, J:, :] = steering[None, :, :] * phases[:, None, None]
    norms = np.linalg.norm(weights, axis=1)
    norms[norms == 0.0] = 1.0
    return weights / norms[:, None, :]


def quiescent_weights(steering: np.ndarray, copies: int = 1, phases=None) -> np.ndarray:
    """Non-adaptive (steering-only) weights, used before any training exists.

    For the staggered (2J) case pass ``copies=2`` and the per-bin stagger
    phase for the second copy; the result is unit-norm per beam.
    """
    steering = np.atleast_2d(np.asarray(steering, dtype=complex))
    if copies == 1:
        blocks = [steering]
    else:
        if phases is None:
            phases = [1.0] * copies
        blocks = [steering * phases[c] for c in range(copies)]
    weights = np.vstack(blocks)
    norms = np.linalg.norm(weights, axis=0)
    norms[norms == 0.0] = 1.0
    return weights / norms
