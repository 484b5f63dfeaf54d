"""Kernel threading: split kernels are bit-identical for any split count.

The golden tests run at tiny/small scale, where no kernel reaches its
minimum chunk size, and follow the host's CPU count.  These tests pin the
split count with :func:`split_into` (the thread budget patched, the
kernels' minimum split sizes set to one item) and compare float views
exactly:

* ``doppler_filter_block`` against the two-FFT formula it replaced;
* ``update_r_units`` / ``compute_hard_weights_units`` against the
  per-unit loops;
* the pool across ``fork``, and the one-thread budget of ``repro.rt`` and
  ``repro.exec`` workers.
"""

import dataclasses
import multiprocessing
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import CASE1, CPIStream, ParallelSTAP, SequentialSTAP, STAPParams
from repro.exec import SimPoint, run_points
from repro.obs.metrics import metrics_registry
from repro.perf import kernel_stats
from repro.radar.windows import window_by_name
from repro.stap import doppler, hard_weights, threads
from repro.stap.doppler import doppler_filter_block, range_correction_factors
from repro.stap.flops import doppler_flops
from repro.stap.hard_weights import (
    compute_hard_weights_loop,
    compute_hard_weights_units,
    update_r_block_loop,
    update_r_units,
)
from repro.stap.threads import (
    kernel_threads,
    set_kernel_threads,
    split_batch,
    split_chunks,
)

from tests.core.test_golden_functional import golden_scenario, report_rows

SPLITS = (1, 2, 3)
#: Seconds a forked run may take before it counts as hung.
FORK_TIMEOUT = 60.0


@contextmanager
def split_into(count):
    """Split every kernel call in the block into ``min(count, batch)``
    chunks, whatever the kernel's minimum split size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threads, "_budget", count)
        patch.setattr(doppler, "SPLIT_MIN_SAMPLES", 1)
        patch.setattr(hard_weights, "SPLIT_MIN_WORK", 1)
        yield


def two_fft_doppler(data, params, k_start=0):
    """The Doppler kernel as it was before cache blocking: one zero-padded
    FFT per window, then a strided transpose into (N, 2J, k)."""
    J, N = params.num_channels, params.num_pulses
    if params.range_correction:
        gains = range_correction_factors(params, k_start, data.shape[0])
        data = data * gains[:, None, None]
    s = params.stagger
    window = window_by_name(params.window, N - s).astype(params.real_dtype)
    out = np.empty((N, 2 * J, data.shape[0]), dtype=np.complex128)
    early = np.fft.fft(data[:, :, : N - s] * window, n=N, axis=2)
    late = np.fft.fft(data[:, :, s:] * window, n=N, axis=2)
    out[:, :J, :] = np.transpose(early, (2, 1, 0))
    out[:, J:, :] = np.transpose(late, (2, 1, 0))
    return out


def random_cube(params, cells, seed=0):
    rng = np.random.default_rng(seed)
    shape = (cells, params.num_channels, params.num_pulses)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return data.astype(params.dtype)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.float64),
        np.ascontiguousarray(b).view(np.float64),
    )


class TestSplitBatch:
    def chunks(self, total, min_chunk):
        seen = []
        lock = threading.Lock()

        def run(lo, hi):
            with lock:
                seen.append((lo, hi))

        split_batch(run, total, min_chunk)
        return sorted(seen)

    @pytest.mark.parametrize("count", SPLITS)
    @pytest.mark.parametrize("total", [0, 1, 2, 5, 17])
    def test_pinned_split_covers_the_batch_contiguously(self, count, total):
        with split_into(count):
            seen = self.chunks(total, min_chunk=1)
        assert len(seen) == max(1, min(count, total))
        assert seen[0][0] == 0 and seen[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))

    def test_below_the_minimum_chunk_runs_inline(self, monkeypatch):
        monkeypatch.setattr(threads, "_budget", 3)
        assert self.chunks(20, min_chunk=8) == [(0, 10), (10, 20)]
        assert self.chunks(15, min_chunk=8) == [(0, 15)]

    def test_chunk_error_propagates_after_all_chunks_finish(self):
        finished = []

        def run(lo, hi):
            if lo == 0:
                raise ValueError("first chunk")
            finished.append(lo)

        with split_into(3), pytest.raises(ValueError, match="first chunk"):
            split_batch(run, 9, 1)
        assert sorted(finished) == [3, 6]

    def test_pinned_budget(self, monkeypatch):
        monkeypatch.setattr(threads, "_budget", None)
        set_kernel_threads(1)
        assert kernel_threads() == 1 and split_chunks(1000, 1) == 1
        set_kernel_threads(None)
        assert kernel_threads() == threads.usable_cpus()
        with pytest.raises(ValueError):
            set_kernel_threads(0)

    def test_budget_follows_affinity(self):
        assert kernel_threads() == threads.usable_cpus() >= 1


class TestDopplerSplit:
    @pytest.mark.parametrize("count", SPLITS)
    def test_paper_scale_matches_two_fft_formula(self, count):
        params = STAPParams.paper()
        data = random_cube(params, params.num_ranges)
        with split_into(count):
            got = doppler_filter_block(data, params)
        assert got.dtype == np.complex64
        assert same_bits(got.astype(np.complex128), two_fft_doppler(data, params))

    @pytest.mark.parametrize("count", SPLITS)
    @pytest.mark.parametrize("cells", [1, 2, 45])
    def test_awkward_sizes(self, count, cells):
        """k = 1, and k not a multiple of the cache block."""
        params = STAPParams.paper()
        data = random_cube(params, cells, seed=cells)
        with split_into(count):
            got = doppler_filter_block(data, params)
        assert got.dtype == np.complex64
        assert same_bits(got.astype(np.complex128), two_fft_doppler(data, params))

    @pytest.mark.parametrize("count", SPLITS)
    def test_offset_slice_with_range_correction(self, count):
        params = dataclasses.replace(STAPParams.paper(), range_correction=True)
        data = random_cube(params, 77, seed=5)
        with split_into(count):
            got = doppler_filter_block(data, params, k_start=300)
        assert got.dtype == np.complex128
        assert same_bits(got, two_fft_doppler(data, params, k_start=300))


class TestSplitCutoffs:
    """The minimum split sizes sit at the crossovers measured on 2 CPUs."""

    @pytest.fixture(autouse=True)
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(threads, "_budget", 2)
        self.monkeypatch = monkeypatch

    def doppler_chunks(self, params, cells):
        seen = []
        inner = doppler._filter_cells

        def recording(data, gains, window, stagger, out, lo, hi, workspace):
            seen.append(hi - lo)
            inner(data, gains, window, stagger, out, lo, hi, workspace)

        self.monkeypatch.setattr(doppler, "_filter_cells", recording)
        doppler_filter_block(random_cube(params, cells), params)
        return sorted(seen)

    def hard_chunks(self, units, n2):
        seen = []
        inner = hard_weights.qr_append_rows_stacked

        def recording(state, rows, forget, **kwargs):
            seen.append(state.shape[0])
            return inner(state, rows, forget=forget, **kwargs)

        self.monkeypatch.setattr(hard_weights, "qr_append_rows_stacked", recording)
        training = np.zeros((units, 4, n2), dtype=complex)
        update_r_units(np.zeros((units, n2, n2), dtype=complex), training, 0.6)
        return sorted(seen)

    def test_doppler(self):
        paper, small = STAPParams.paper(), STAPParams.small()
        assert self.doppler_chunks(paper, 16) == [16]
        assert self.doppler_chunks(paper, 32) == [16, 16]
        assert self.doppler_chunks(paper, 64) == [32, 32]
        assert self.doppler_chunks(small, small.num_ranges) == [small.num_ranges]

    def test_hard_weights(self):
        assert self.hard_chunks(12, 32) == [12]
        assert self.hard_chunks(31, 32) == [31]
        assert self.hard_chunks(32, 32) == [16, 16]
        assert self.hard_chunks(48, 16) == [48]


def hard_problem(units, seed=0):
    """Paper-sized (2J = 32) R states after two recursion steps, the
    first unit left cold (all-zero state: the lstsq fallback)."""
    params = STAPParams.paper()
    rng = np.random.default_rng(seed)
    n2, rows, M = params.num_staggered_channels, params.hard_train_samples, 6

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    state = np.zeros((1, units, n2, n2), dtype=complex)
    for _ in range(2):
        update_r_block_loop(state, crandn(1, units, rows, n2), 0.6)
    state[0, 0] = 0.0
    steering = crandn(n2 // 2, M)
    phases = np.exp(2j * np.pi * rng.random(units))
    return state, crandn(1, units, rows, n2), steering, phases


class TestHardSplit:
    @pytest.mark.parametrize("count", SPLITS)
    @pytest.mark.parametrize("units", [1, 2, 3, 7])
    def test_update_matches_loop(self, count, units):
        state, training, _, _ = hard_problem(units)
        expected = state.copy()
        update_r_block_loop(expected, training, 0.6)
        flat = state[0].copy()
        with split_into(count):
            update_r_units(flat, training[0], 0.6)
        assert same_bits(flat, expected[0])

    @pytest.mark.parametrize("count", SPLITS)
    @pytest.mark.parametrize("units", [1, 2, 3, 7])
    def test_solve_matches_loop(self, count, units):
        state, _, steering, phases = hard_problem(units, seed=units)
        expected = compute_hard_weights_loop(state, steering, phases, 1.5, 0.7)
        with split_into(count):
            got = compute_hard_weights_units(state[0], steering, phases, 1.5, 0.7)
        assert same_bits(got, expected[0])


class TestCountersUnderThreads:
    @pytest.fixture(autouse=True)
    def restore_counters(self):
        yield
        metrics_registry.disable()
        metrics_registry.reset()

    def test_split_doppler_records_one_entry(self):
        params = STAPParams.paper()
        data = random_cube(params, params.num_ranges)
        with split_into(3), metrics_registry.collect():
            doppler_filter_block(data, params)
        stats = kernel_stats()["doppler"]
        assert stats["calls"] == 1
        assert stats["flops"] == doppler_flops(params)
        assert stats["seconds"] > 0.0

    def test_split_hard_kernels_record_unchanged_flops(self):
        state, training, steering, phases = hard_problem(7)
        flops = {}
        for count in (1, 3):
            with split_into(count), metrics_registry.collect():
                update_r_units(state[0].copy(), training[0], 0.6)
                compute_hard_weights_units(state[0], steering, phases, 1.5, 0.7)
            stats = kernel_stats()["hard_weight"]
            assert stats["calls"] == 2
            flops[count] = stats["flops"]
        assert flops[1] == flops[3]


def _filter_in_child(data, params, queue):
    with split_into(2):
        queue.put(doppler_filter_block(data, params).tobytes())


def _use_the_pool():
    """Run a split kernel so the parent's pool has live threads."""
    params = STAPParams.small()
    with split_into(2):
        doppler_filter_block(random_cube(params, params.num_ranges), params)


def functional_rows(params, num_cpis):
    stream = CPIStream(params, golden_scenario())
    reports = SequentialSTAP(params).process_stream(stream.take(num_cpis))
    return [report_rows(report) for report in reports]


@dataclasses.dataclass(frozen=True)
class FunctionalPoint(SimPoint):
    """A sweep point that runs the functional chain in the pool worker and
    reports the worker's kernel thread budget with its detections."""

    def run(self):
        return kernel_threads(), functional_rows(self.params, self.num_cpis)


class TestForkAndWorkers:
    def test_pool_is_recreated_after_fork(self):
        params = STAPParams.small()
        data = random_cube(params, params.num_ranges)
        _use_the_pool()
        with split_into(2):
            expected = doppler_filter_block(data, params).tobytes()
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_filter_in_child, args=(data, params, queue))
        child.start()
        try:
            got = queue.get(timeout=FORK_TIMEOUT)
        finally:
            child.join(FORK_TIMEOUT)
            if child.is_alive():
                child.kill()
        assert got == expected
        assert child.exitcode == 0

    @pytest.mark.rt
    def test_rt_workers_run_one_thread(self, monkeypatch):
        import repro.rt.runtime as runtime

        stage_body = runtime.run_stage

        def checked(ctx, stage, replica):
            if kernel_threads() != 1:
                raise RuntimeError(f"{stage} worker has {kernel_threads()} threads")
            stage_body(ctx, stage, replica)

        monkeypatch.setattr(runtime, "run_stage", checked)
        params = STAPParams.tiny()
        _use_the_pool()
        with split_into(3):
            stream = CPIStream(params, golden_scenario())
            result = ParallelSTAP(params, stream, num_cpis=4).run(timeout=FORK_TIMEOUT)
            reports = sorted(result.reports, key=lambda r: r.cpi_index)
            expected = functional_rows(params, 4)
        assert [report_rows(r) for r in reports] == expected

    @pytest.mark.exec
    def test_jobs2_functional_sweep_runs_one_thread_per_worker(self):
        params = STAPParams.tiny()
        points = [FunctionalPoint(params, CASE1, num_cpis=n) for n in (3, 4)]
        outcomes = []
        _use_the_pool()
        with split_into(3):
            sweep = threading.Thread(
                target=lambda: outcomes.extend(run_points(points, jobs=2, cache=None)),
                daemon=True,
            )
            sweep.start()
            sweep.join(FORK_TIMEOUT)
            assert not sweep.is_alive(), "jobs=2 sweep hung after fork"
            expected = functional_rows(params, 4)
        for outcome, count in zip(outcomes, (3, 4)):
            assert outcome.ok, outcome.error
            worker_threads, rows = outcome.result
            assert worker_threads == 1
            assert rows == expected[:count]
