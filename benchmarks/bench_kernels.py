"""Batched STAP kernels vs the retained per-bin loops.

Unlike the simulator-speed benchmarks this module measures the *numerical*
hot path: the stacked weight kernels of :mod:`repro.stap` against the
per-bin loop references they replaced (``compute_easy_weights_loop`` and
per-unit loops over the hard weight kernels — the exact pre-batching
implementations, kept as ground truth), plus the end-to-end
functional chain before/after.  Four sections, beside the host's
``usable_cpus`` and the ``kernel_threads`` the split kernels use:

* **kernels** — per-kernel wall time, loop vs batched, on one BLAS thread
  and one kernel thread (the ``rt`` workers' configuration), identical
  outputs asserted (the batched kernels are bit-identical by construction);
* **doppler** — the cache-blocked Doppler kernel on one thread and split
  over the kernel threads (with the chunk count the split used), so the
  single-core gain and the threading gain each show on their own;
* **counters** — per-kernel host seconds and achieved flops/s from
  :mod:`repro.perf.kernels`, against the paper's Table 1 counts, each the
  fastest of :data:`COUNTER_PASSES` passes;
* **end_to_end** — the sequential reference and the functional pipeline
  over pre-generated CPI cubes (cube synthesis excluded from the timing),
  run once with the loop kernels patched in and once batched, detections
  compared CPI for CPI.

Run under pytest (``pytest benchmarks/bench_kernels.py -m bench_smoke``)
for the fast small-scale guard, or as a plain script for the paper-scale
measurement, which writes ``BENCH_kernels.json`` at the repository root::

    python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import (
    Assignment,
    CPIStream,
    RadarScenario,
    STAPParams,
    STAPPipeline,
    SequentialSTAP,
    TargetTruth,
)
from repro.obs.metrics import metrics_registry
from repro.perf import achieved_vs_table1, kernel_summary
from repro.stap import easy_weights as ew
from repro.stap import hard_weights as hw
from repro.stap.doppler import doppler_filter_block, min_split_cells, stagger_phase
from repro.stap.flops import doppler_flops
from repro.stap.lsq import qr_append_rows, solve_constrained
from repro.stap.threads import (
    kernel_threads,
    one_thread_children,
    set_kernel_threads,
    split_chunks,
    usable_cpus,
)

#: Where the script mode drops its results.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: CPIs per end-to-end measurement (azimuth revisits included).
NUM_CPIS = 6

#: Reference passes behind each kernel counter row, which keeps the
#: fastest: one pass of a sub-millisecond detection kernel (CFAR, pulse
#: compression, beamforming at small scale) is a single noisy sample.
COUNTER_PASSES = 5

#: Functional-pipeline node assignment (modest: the numerics dominate).
FUNCTIONAL_COUNTS = (2, 1, 2, 1, 1, 1, 1)

#: Seconds of multi-threaded BLAS work after the one-thread kernel rows.
#: On a 2-vCPU host, small BLAS calls ran about 40x slower for the first
#: 1.0-1.25 s after OpenBLAS's helper threads (re)started on an idle CPU,
#: so the next timed section could land entirely in that phase.
BLAS_WARMUP_SECONDS = 2.0


def bench_scenario() -> RadarScenario:
    return RadarScenario(
        clutter_to_noise_db=40.0,
        targets=(
            TargetTruth(range_cell=20, normalized_doppler=0.25, angle_deg=0.0, snr_db=5.0),
            TargetTruth(range_cell=30, normalized_doppler=0.05, angle_deg=-10.0, snr_db=10.0),
        ),
        seed=11,
    )


# -- loop-mode patching ----------------------------------------------------------
def _compute_easy_weights_loop(stacked, steering, kappa, workspace=None):
    """:func:`ew.compute_easy_weights_loop` with the batched kernel's
    signature (a loop allocates its own arrays)."""
    return ew.compute_easy_weights_loop(stacked, steering, kappa)


def _update_r_units_loop(state, training, forget, workspace=None):
    """Per-unit loop equivalent of :func:`hw.update_r_units`."""
    for idx in range(state.shape[0]):
        state[idx] = qr_append_rows(state[idx], training[idx], forget=forget)


def _compute_hard_weights_units_loop(state, steering, phases, beam_weight, freq_weight,
                                     workspace=None):
    """Per-unit loop equivalent of :func:`hw.compute_hard_weights_units`."""
    n2 = state.shape[1]
    J = n2 // 2
    identity = np.eye(J, dtype=complex)
    weights = np.empty((state.shape[0], n2, steering.shape[1]), dtype=complex)
    for idx in range(state.shape[0]):
        r_data = state[idx]
        scale = float(np.mean(np.abs(np.diag(r_data))))
        if scale <= 0.0:
            scale = 1.0
        constraint = scale * np.hstack(
            [beam_weight * identity, freq_weight * np.conj(phases[idx]) * identity]
        )
        weights[idx] = solve_constrained(r_data, constraint, steering)
    return weights


@contextmanager
def loop_kernels():
    """Patch the per-bin loop kernels back in — the seed implementation.

    The weight computers resolve these module globals at call time, and
    every path (the sequential reference, the pipeline's weight tasks)
    computes its weights through them.
    """
    saved = [
        (ew, "compute_easy_weights", ew.compute_easy_weights),
        (hw, "update_r_units", hw.update_r_units),
        (hw, "compute_hard_weights_units", hw.compute_hard_weights_units),
    ]
    ew.compute_easy_weights = _compute_easy_weights_loop
    hw.update_r_units = _update_r_units_loop
    hw.compute_hard_weights_units = _compute_hard_weights_units_loop
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


# -- per-kernel micro-benchmarks -------------------------------------------------
def warm_blas(seconds: float = BLAS_WARMUP_SECONDS) -> None:
    """Keep OpenBLAS's helper threads busy for ``seconds`` (untimed)."""
    a = np.random.default_rng(0).standard_normal((128, 128))
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ a


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_weight_kernels(params: STAPParams, repeats: int = 3) -> dict:
    """Loop vs batched wall time for the three batched weight kernels."""
    rng = np.random.default_rng(7)
    J, n2, M = params.num_channels, params.num_staggered_channels, params.num_beams
    S, B = params.num_segments, params.num_hard_doppler
    steering = SequentialSTAP(params).steering
    phases = stagger_phase(params, params.hard_bins)

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    records = {}

    # Easy weights: one stacked QR + constrained solve over all easy bins.
    stacked = crandn(params.num_easy_doppler, params.easy_train_total, J)
    kappa = params.beam_constraint_weight
    loop_s = _best_of(lambda: ew.compute_easy_weights_loop(stacked, steering, kappa), repeats)
    batched_s = _best_of(lambda: ew.compute_easy_weights(stacked, steering, kappa), repeats)
    identical = np.array_equal(
        ew.compute_easy_weights(stacked, steering, kappa),
        ew.compute_easy_weights_loop(stacked, steering, kappa),
    )
    records["easy_weight"] = _kernel_record(loop_s, batched_s, identical)

    # Hard recursion update: stacked block QR over all (segment, bin) units.
    training = crandn(S * B, params.hard_train_samples, n2)
    state0 = np.zeros((S * B, n2, n2), dtype=complex)
    hw.update_r_units(state0, training, params.forgetting_factor)  # warm state

    def run_update(fn):
        state = state0.copy()
        fn(state, training, params.forgetting_factor)
        return state

    loop_s = _best_of(lambda: run_update(_update_r_units_loop), repeats)
    batched_s = _best_of(lambda: run_update(hw.update_r_units), repeats)
    identical = np.array_equal(
        run_update(hw.update_r_units), run_update(_update_r_units_loop)
    )
    records["hard_weight_update"] = _kernel_record(loop_s, batched_s, identical)

    # Hard constrained solve over the warm state.
    args = (state0, steering, np.tile(phases, S), params.beam_constraint_weight,
            params.freq_constraint_weight)
    loop_s = _best_of(lambda: _compute_hard_weights_units_loop(*args), repeats)
    batched_s = _best_of(lambda: hw.compute_hard_weights_units(*args), repeats)
    identical = np.array_equal(
        hw.compute_hard_weights_units(*args), _compute_hard_weights_units_loop(*args)
    )
    records["hard_weight_solve"] = _kernel_record(loop_s, batched_s, identical)
    return records


def bench_doppler(params: STAPParams, repeats: int = 5) -> dict:
    """The Doppler kernel on one whole cube: one thread vs the split.

    ``chunks`` is how many threads the split row actually used; a cube
    below the kernel's minimum split size runs on one thread in both rows.
    """
    cube = CPIStream(params, bench_scenario()).cube(0).data
    flops = doppler_flops(params)
    set_kernel_threads(1)
    try:
        one_thread_s = _best_of(lambda: doppler_filter_block(cube, params), repeats)
        one_thread = doppler_filter_block(cube, params)
    finally:
        set_kernel_threads(None)
    split_s = _best_of(lambda: doppler_filter_block(cube, params), repeats)
    return {
        "kernel_threads": kernel_threads(),
        "one_thread": {"seconds": one_thread_s,
                       "flops_per_second": flops / one_thread_s},
        "split": {"chunks": split_chunks(params.num_ranges, min_split_cells(params)),
                  "seconds": split_s, "flops_per_second": flops / split_s,
                  "speedup": one_thread_s / split_s},
        "identical": bool(np.array_equal(doppler_filter_block(cube, params),
                                         one_thread)),
    }


def _kernel_record(loop_s: float, batched_s: float, identical: bool) -> dict:
    return {
        "loop_seconds": loop_s,
        "batched_seconds": batched_s,
        "speedup": loop_s / batched_s if batched_s else 0.0,
        "identical": bool(identical),
    }


# -- end-to-end measurements -----------------------------------------------------
class _PrebuiltStream:
    """CPIStream lookalike serving pre-generated cubes (no synthesis cost)."""

    def __init__(self, stream: CPIStream, cubes):
        self.params = stream.params
        self.azimuth_cycle = stream.azimuth_cycle
        self._cubes = cubes

    def cube(self, cpi_index: int):
        return self._cubes[cpi_index]

    def take(self, count: int, start: int = 0):
        return self._cubes[start : start + count]


def _detection_lists(reports) -> list:
    return [
        [
            (d.doppler_bin, d.beam, d.range_cell, d.power, d.threshold)
            for d in report.detections
        ]
        for report in reports
    ]


def bench_end_to_end(params: STAPParams, num_cpis: int = NUM_CPIS) -> dict:
    """Sequential reference over pre-generated cubes: loop vs batched."""
    cubes = CPIStream(params, bench_scenario()).take(num_cpis)

    def run() -> tuple[float, list]:
        reference = SequentialSTAP(params)
        start = time.perf_counter()
        reports = reference.process_stream(cubes)
        return time.perf_counter() - start, _detection_lists(reports)

    with loop_kernels():
        loop_s, loop_dets = run()
    batched_s, batched_dets = run()
    return {
        "num_cpis": num_cpis,
        "loop_seconds_per_cpi": loop_s / num_cpis,
        "batched_seconds_per_cpi": batched_s / num_cpis,
        "speedup": loop_s / batched_s if batched_s else 0.0,
        "detections_identical": batched_dets == loop_dets,
        "total_detections": sum(len(d) for d in batched_dets),
    }


def bench_functional_pipeline(params: STAPParams, num_cpis: int = NUM_CPIS) -> dict:
    """Functional-mode parallel pipeline: loop vs batched, pre-built cubes."""
    base = CPIStream(params, bench_scenario())
    stream = _PrebuiltStream(base, base.take(num_cpis))

    def run() -> tuple[float, list]:
        pipeline = STAPPipeline(
            params,
            Assignment(*FUNCTIONAL_COUNTS, name="bench_kernels"),
            mode="functional",
            stream=stream,
            num_cpis=num_cpis,
        )
        start = time.perf_counter()
        result = pipeline.run()
        return time.perf_counter() - start, _detection_lists(result.reports)

    with loop_kernels():
        loop_s, loop_dets = run()
    batched_s, batched_dets = run()
    return {
        "assignment": list(FUNCTIONAL_COUNTS),
        "num_cpis": num_cpis,
        "loop_wall_seconds": loop_s,
        "batched_wall_seconds": batched_s,
        "speedup": loop_s / batched_s if batched_s else 0.0,
        "cpis_per_second": num_cpis / batched_s if batched_s else 0.0,
        "detections_identical": batched_dets == loop_dets,
    }


def bench_kernel_metrics(params: STAPParams, num_cpis: int = NUM_CPIS,
                         passes: int = COUNTER_PASSES) -> dict:
    """Per-kernel seconds and achieved flops/s over batched reference runs:
    each kernel's row is its fastest of ``passes`` passes over the cubes."""
    cubes = CPIStream(params, bench_scenario()).take(num_cpis)
    best: dict = {}
    for _ in range(passes):
        with metrics_registry.collect():
            SequentialSTAP(params).process_stream(cubes)
        snapshot = metrics_registry.snapshot()
        metrics_registry.reset()
        for name, row in achieved_vs_table1(snapshot, num_cpis=num_cpis).items():
            if name not in best or row["seconds"] < best[name]["seconds"]:
                best[name] = row
    print(kernel_summary(
        snapshot, title=f"kernel counters ({num_cpis} CPIs, last of {passes} passes)"))
    return best


def measure_all(params: STAPParams, scale: str, num_cpis: int = NUM_CPIS) -> dict:
    # The weight kernels run on one BLAS thread, as ``rt`` workers run them;
    # leaving the pin restarts the BLAS helper threads the later sections
    # use, so they are warmed before anything else is timed.
    with one_thread_children():
        kernels = bench_weight_kernels(params)
    warm_blas()
    return {
        "scale": scale,
        "usable_cpus": usable_cpus(),
        "kernel_threads": kernel_threads(),
        "kernels": kernels,
        "doppler": bench_doppler(params),
        "counters": bench_kernel_metrics(params, num_cpis),
        "end_to_end": bench_end_to_end(params, num_cpis),
        "functional_pipeline": bench_functional_pipeline(params, num_cpis),
    }


def _print_results(results: dict) -> None:
    for name, record in results["kernels"].items():
        print(
            f"{name:<20} loop {record['loop_seconds'] * 1e3:8.2f} ms   "
            f"batched {record['batched_seconds'] * 1e3:8.2f} ms   "
            f"{record['speedup']:6.1f}x   identical={record['identical']}"
        )
    dop = results["doppler"]
    print(
        f"{'doppler':<20} 1 thread {dop['one_thread']['seconds'] * 1e3:6.2f} ms   "
        f"{dop['split']['chunks']} chunks {dop['split']['seconds'] * 1e3:6.2f} ms   "
        f"{dop['split']['speedup']:6.1f}x   identical={dop['identical']}"
    )
    e2e = results["end_to_end"]
    print(
        f"{'reference end-to-end':<20} loop {e2e['loop_seconds_per_cpi'] * 1e3:8.2f} "
        f"ms/CPI   batched {e2e['batched_seconds_per_cpi'] * 1e3:8.2f} ms/CPI   "
        f"{e2e['speedup']:6.1f}x   identical={e2e['detections_identical']}"
    )
    pipe = results["functional_pipeline"]
    print(
        f"{'functional pipeline':<20} loop {pipe['loop_wall_seconds']:8.2f} s      "
        f"batched {pipe['batched_wall_seconds']:8.2f} s      "
        f"{pipe['speedup']:6.1f}x   identical={pipe['detections_identical']}"
    )


# -- pytest entry points ---------------------------------------------------------
@pytest.mark.bench_smoke
def test_kernels_smoke():
    """Fast guard: batched kernels no slower than the loops, same answers.

    Small scale keeps the guard under a few seconds; the speedup
    assertions use 1.0 (not the typical 5-20x) so timing noise on loaded
    hosts cannot flake the suite — a batched kernel *slower* than its
    Python loop is the regression this guards against.
    """
    params = STAPParams.small()
    results = measure_all(params, "small", num_cpis=4)
    print()
    _print_results(results)
    _merge_results({"smoke": results})
    for name, record in results["kernels"].items():
        assert record["identical"], f"{name}: batched != loop"
        assert record["speedup"] >= 1.0, (
            f"{name}: batched ({record['batched_seconds']:.4f}s) slower than "
            f"loop ({record['loop_seconds']:.4f}s)"
        )
    assert results["doppler"]["identical"]
    assert results["end_to_end"]["detections_identical"]
    assert results["end_to_end"]["speedup"] >= 1.0
    assert results["functional_pipeline"]["detections_identical"]


# -- script entry point ----------------------------------------------------------
def _merge_results(updates: dict) -> None:
    """Write results, printing the regression-gate table against the
    previous generation (see :func:`benchmarks.common.merge_results`)."""
    try:
        from benchmarks.common import merge_results
    except ImportError:  # script mode: benchmarks/ itself is sys.path[0]
        from common import merge_results

    merge_results(RESULTS_PATH, updates)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print(f"usage: {Path(__file__).name}", file=sys.stderr)
        return 2
    results = measure_all(STAPParams.paper(), "paper")
    _print_results(results)
    _merge_results(results)
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
