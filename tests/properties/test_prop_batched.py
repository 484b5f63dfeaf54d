"""Property-based tests: batched kernels vs their per-item loop references.

The batched ``*_stacked`` kernels of :mod:`repro.stap.lsq` and the batched
weight computations built on them claim *bit identity* with the per-bin
loops they replaced: each stack slice dispatches through the same LAPACK
kernels as the per-matrix call, so results must not merely be close — they
must be equal, and independent of how slices are grouped into batches
(which is what keeps parallel tasks identical to the sequential
reference).  These properties pin that claim across random shapes and
values.

The same holds one level up: the beamformers and the weight computers
take any block of bins or (segment, bin) units, and a call on a block
equals the full-extent call sliced — what lets the simulator's tasks and
the real runtime run the reference's code on their own blocks.  The easy
weight computer's two sides get their training in random memory orders.

The one documented exception: a single-column right-hand side (M=1) may
differ by a few ULP because BLAS dispatches ``gemv`` instead of ``gemm``.
The pipeline always carries M >= 2 beams, so the strategies below draw
M >= 2 and assert exact equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.radar import STAPParams
from repro.stap.beamform import beamform_easy, beamform_hard
from repro.stap.easy_weights import (
    EasyWeightComputer,
    compute_easy_weights,
    compute_easy_weights_loop,
)
from repro.stap.hard_weights import (
    HardWeightComputer,
    compute_hard_weights_loop,
    compute_hard_weights_units,
    segment_grid,
    update_r_block_loop,
    update_r_units,
)
from repro.stap.lsq import (
    qr_append_rows,
    qr_append_rows_stacked,
    qr_factor,
    qr_factor_stacked,
    quiescent_weights,
    quiescent_weights_stacked,
    solve_constrained,
    solve_constrained_stacked,
)
from repro.stap.plan import default_plan


def complex_stacks(max_batch=5, max_rows=12, max_cols=6, min_rows=1):
    """Strategy for (batch, m, n) complex stacks with bounded entries."""
    shapes = st.tuples(
        st.integers(min_value=1, max_value=max_batch),
        st.integers(min_value=min_rows, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    )
    return shapes.flatmap(_complex_array)


def _complex_array(shape):
    # Near-denormal magnitudes are mapped to exact zero: a ~1e-308 training
    # level drives lstsq weights to inf and normalization to NaN on *both*
    # paths, and array_equal(NaN, NaN) is False.  Zeros still exercise the
    # degenerate/fallback branches; real training data is O(1).
    part = hnp.arrays(
        np.float64,
        shape,
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False).map(
            lambda v: 0.0 if abs(v) < 1e-6 else v
        ),
    )
    return st.tuples(part, part).map(lambda pair: pair[0] + 1j * pair[1])


class TestStackedQr:
    @given(complex_stacks())
    @settings(max_examples=60, deadline=None)
    def test_qr_factor_stacked_equals_loop(self, stack):
        batched = qr_factor_stacked(stack)
        for idx in range(stack.shape[0]):
            assert np.array_equal(batched[idx], qr_factor(stack[idx]))

    @given(complex_stacks(max_rows=5, max_cols=5), st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_qr_append_rows_stacked_equals_loop(self, rows, forget):
        batch, _, n = rows.shape
        r_old = qr_factor_stacked(np.conj(rows[:, ::-1, :]) + 0.5)
        batched = qr_append_rows_stacked(r_old, rows, forget=forget)
        for idx in range(batch):
            expected = qr_append_rows(r_old[idx], rows[idx], forget=forget)
            assert np.array_equal(batched[idx], expected)

    @given(complex_stacks(max_batch=4, max_rows=10, max_cols=4))
    @settings(max_examples=40, deadline=None)
    def test_batch_composition_independence(self, stack):
        """Factoring a sub-batch equals slicing the full batch's result."""
        full = qr_factor_stacked(stack)
        for split in range(stack.shape[0] + 1):
            head = qr_factor_stacked(stack[:split])
            tail = qr_factor_stacked(stack[split:])
            assert np.array_equal(np.concatenate([head, tail]), full)


class TestStackedSolve:
    @given(
        complex_stacks(max_batch=4, max_rows=12, max_cols=5, min_rows=1),
        st.integers(min_value=2, max_value=4),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_solve_constrained_stacked_equals_loop(
        self, data, num_beams, normalize, degenerate_first
    ):
        batch, _, n = data.shape
        rng = np.random.default_rng(n + num_beams)
        r_data = qr_factor_stacked(data)
        if degenerate_first:
            # Exercise the per-slice lstsq fallback alongside healthy slices.
            r_data[0] = 0.0
        c = max(1, n // 2)
        constraints = (
            rng.standard_normal((batch, c, n)) + 1j * rng.standard_normal((batch, c, n))
        )
        steering = rng.standard_normal((c, num_beams)) + 1j * rng.standard_normal(
            (c, num_beams)
        )
        batched = solve_constrained_stacked(
            r_data, constraints, steering, normalize=normalize
        )
        for idx in range(batch):
            expected = solve_constrained(
                r_data[idx], constraints[idx], steering, normalize=normalize
            )
            assert np.array_equal(batched[idx], expected)


class TestStackedQuiescent:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_quiescent_stacked_equals_loop(self, J, M, num_bins, seed):
        rng = np.random.default_rng(seed)
        steering = rng.standard_normal((J, M)) + 1j * rng.standard_normal((J, M))
        phases = np.exp(2j * np.pi * rng.random(num_bins))
        batched = quiescent_weights_stacked(steering, phases)
        for idx in range(num_bins):
            expected = quiescent_weights(steering, copies=2, phases=[1.0, phases[idx]])
            assert np.array_equal(batched[idx], expected)


class TestBatchedWeightKernels:
    @given(
        complex_stacks(max_batch=4, max_rows=14, max_cols=4, min_rows=1),
        st.integers(min_value=2, max_value=3),
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_compute_easy_weights_equals_loop(self, stacked, num_beams, kappa, seed):
        J = stacked.shape[2]
        rng = np.random.default_rng(seed)
        steering = rng.standard_normal((J, num_beams)) + 1j * rng.standard_normal(
            (J, num_beams)
        )
        assert np.array_equal(
            compute_easy_weights(stacked, steering, kappa),
            compute_easy_weights_loop(stacked, steering, kappa),
        )

    @given(
        st.integers(min_value=1, max_value=3),   # segments
        st.integers(min_value=1, max_value=4),   # bins
        st.integers(min_value=1, max_value=3),   # J
        st.integers(min_value=2, max_value=3),   # beams
        st.floats(min_value=0.2, max_value=1.0),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_hard_update_and_solve_equal_loop(self, S, B, J, M, forget, seed):
        rng = np.random.default_rng(seed)
        n2 = 2 * J
        training = rng.standard_normal((S, B, 2 * n2, n2)) + 1j * rng.standard_normal(
            (S, B, 2 * n2, n2)
        )
        state_batched = np.zeros((S, B, n2, n2), dtype=complex)
        state_loop = np.zeros((S, B, n2, n2), dtype=complex)
        # The batched kernels take the (S, B) grid as one flat unit axis.
        flat = state_batched.reshape(S * B, n2, n2)
        for _ in range(2):  # two recursion steps: cold + warm state
            update_r_units(flat, training.reshape(S * B, -1, n2), forget)
            update_r_block_loop(state_loop, training, forget)
            assert np.array_equal(state_batched, state_loop)
        steering = rng.standard_normal((J, M)) + 1j * rng.standard_normal((J, M))
        phases = np.exp(2j * np.pi * rng.random(B))
        batched = compute_hard_weights_units(
            flat, steering, np.tile(phases, S), 1.5, 0.7
        )
        assert np.array_equal(
            batched.reshape(S, B, n2, M),
            compute_hard_weights_loop(state_loop, steering, phases, 1.5, 0.7),
        )


# -- block invariance: a block of bins/units vs the full extent ------------------
def _crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _block(rng, total):
    """A random non-empty, ordered subset of ``range(total)``."""
    return np.sort(rng.choice(total, rng.integers(1, total + 1), replace=False))


def _beamform_easy_block(rng, params, visits):
    n, J, K, M = (params.num_easy_doppler, params.num_channels,
                  params.num_ranges, params.num_beams)
    data, weights = _crandn(rng, (n, J, K)), _crandn(rng, (n, J, M))
    idx = _block(rng, n)
    return (beamform_easy(data[idx], weights[idx], params),
            beamform_easy(data, weights, params)[idx])


def _beamform_hard_block(rng, params, visits):
    n, n2, K = (params.num_hard_doppler, params.num_staggered_channels,
                params.num_ranges)
    data = _crandn(rng, (n, n2, K))
    weights = _crandn(rng, (params.num_segments, n, n2, params.num_beams))
    idx = _block(rng, n)
    return (beamform_hard(data[idx], weights[:, idx], params),
            beamform_hard(data, weights, params)[idx])


def _laid_out(rng, training):
    """(bins, rows, J) ``training`` in a random memory order: C-ordered, as
    a rank assembles its blocks, or (rows, bins, J), as a gather of range
    cells from the (bins, J, K) easy cube lays it out."""
    if rng.random() < 0.5:
        return np.ascontiguousarray(training)
    bins, rows, J = training.shape
    out = np.empty((rows, bins, J), training.dtype).transpose(1, 0, 2)
    out[...] = training
    return out


def _easy_computer_block(rng, params, visits):
    plan = default_plan(params)
    idx = _block(rng, params.num_easy_doppler)
    full = EasyWeightComputer(plan)
    block = EasyWeightComputer(plan, params.easy_bins[idx])
    for _ in range(visits):  # 0 visits: the cold start
        training = _crandn(rng, (params.num_easy_doppler,
                                 params.easy_train_per_cpi, params.num_channels))
        full.push_training(_laid_out(rng, training))
        block.push_training(_laid_out(rng, training[idx]))
    return block.compute_weights(), full.compute_weights()[idx]


def _hard_computer_block(rng, params, visits):
    plan = default_plan(params)
    n2, M = params.num_staggered_channels, params.num_beams
    grid = segment_grid(params, params.hard_bins)
    idx = _block(rng, grid.size)
    full = HardWeightComputer(plan)
    block = HardWeightComputer(plan, grid.ravel()[idx])
    # Some units see only zeros: they keep the quiescent weights.
    idle = rng.random(grid.shape) < 0.3
    for _ in range(visits):
        training = _crandn(rng, grid.shape + (params.hard_train_samples, n2))
        training[idle] = 0.0
        full.update(training)
        block.update(training.reshape(-1, params.hard_train_samples, n2)[idx])
    return (block.compute_weights(),
            full.compute_weights().reshape(-1, n2, M)[idx])


BLOCK_KERNELS = {
    "beamform_easy": _beamform_easy_block,
    "beamform_hard": _beamform_hard_block,
    "easy_weight_computer": _easy_computer_block,
    "hard_weight_computer": _hard_computer_block,
}


class TestBlockInvariance:
    @pytest.mark.parametrize("kernel", sorted(BLOCK_KERNELS))
    @given(
        st.sampled_from(["tiny", "small"]),
        st.integers(min_value=0, max_value=3),   # training visits
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_block_equals_full_extent_sliced(self, kernel, scale, visits, seed):
        params = getattr(STAPParams, scale)()
        block, full = BLOCK_KERNELS[kernel](np.random.default_rng(seed), params, visits)
        assert np.array_equal(block, full)
