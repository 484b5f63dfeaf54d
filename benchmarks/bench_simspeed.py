"""Simulation speed: the wall-clock cost of the simulator itself.

Unlike the other benchmark modules this one reproduces no paper table —
it tracks how fast the *simulator* chews through the paper-scale runs
(Table 7's three assignments, 25 CPIs each), in wall-seconds per
simulated CPI and events per second, plus how much the batch executor
(:mod:`repro.exec`) buys by fanning independent runs over worker
processes.  These are the figures the DES / SimMPI fast paths and the
executor are graded on; regressions here make every other benchmark
slower.

Run under pytest (needs pytest-benchmark)::

    pytest benchmarks/bench_simspeed.py

or as a plain script, which writes ``BENCH_simspeed.json`` next to the
repository root with all three Table 7 cases in ``runs`` and a serial-vs-
parallel executor comparison::

    python benchmarks/bench_simspeed.py             # all three cases
    python benchmarks/bench_simspeed.py --jobs 4    # executor worker count
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

from repro import CASE1, CASE2, CASE3, STAPParams, STAPPipeline

CASES = {"case1": CASE1, "case2": CASE2, "case3": CASE3}

#: Measurement order: smallest first so a hang fails fast.
CASE_ORDER = ("case3", "case2", "case1")

#: CPIs per measured run, matching the paper's experiments.
NUM_CPIS = 25

#: Where the script mode drops its results.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _merge_results(updates: dict) -> None:
    """Merge one section into the results file without clobbering others
    (printing the regression-gate delta table against the previous
    generation; see :func:`benchmarks.common.merge_results`)."""
    try:
        from benchmarks.common import merge_results
    except ImportError:  # script mode: benchmarks/ itself is sys.path[0]
        from common import merge_results

    merge_results(RESULTS_PATH, updates)


def measure_case(
    case_key: str,
    num_cpis: int = NUM_CPIS,
    trace: bool = False,
    backend: str | None = None,
) -> dict:
    """One perf-instrumented modeled run; returns the JSON-ready record."""
    assignment = CASES[case_key]
    pipeline = STAPPipeline(
        STAPParams.paper(), assignment, num_cpis=num_cpis, perf=True,
        trace=trace, backend=backend,
    )
    result = pipeline.run()
    perf = result.perf
    record = perf.to_dict()
    record.update(
        case=case_key,
        nodes=assignment.total_nodes,
        makespan=result.makespan,
        throughput_cpis_per_s=result.metrics.measured_throughput,
    )
    return record


# -- backend scaling sweep --------------------------------------------------------
#: CPIs per scaling-sweep run: enough events for a stable events/s figure
#: without the 1024-rank reference run dominating the whole benchmark.
SCALING_CPIS = 10

#: Interleaved trials per (config, backend) row; the best one is recorded.
SCALING_TRIALS = 3

#: Rank counts of the sweep: the three Table 7 assignments (59/118/236
#: nodes), the full 321-node AFRL Paragon, and a hypothetical 1024-node
#: 32x32 mesh with Paragon-calibrated nodes and links.
def _scaling_configs() -> list[tuple[str, object, object]]:
    """(label, assignment, machine) rows; machine None = default Paragon."""
    from repro.machine import Machine, Mesh2D, NodeModel, afrl_paragon
    from repro.machine.paragon import (
        PARAGON_NETWORK,
        PARAGON_PACKING,
        PARAGON_RATES,
    )
    from repro.scheduling import AnalyticPipelineModel, optimize_throughput

    params = STAPParams.paper()
    configs: list[tuple[str, object, object]] = [
        (key, CASES[key], None) for key in CASE_ORDER
    ]
    paragon321 = optimize_throughput(
        AnalyticPipelineModel(params, afrl_paragon()), 321, name="paragon-321"
    )
    configs.append(("paragon321", paragon321, None))
    mesh1024 = Machine(
        mesh=Mesh2D(32, 32),
        node=NodeModel(rates=PARAGON_RATES, processors_per_node=1),
        network_cost=PARAGON_NETWORK,
        packing_cost=PARAGON_PACKING,
        name="hypothetical 1024-node mesh",
    )
    big = optimize_throughput(
        AnalyticPipelineModel(params, mesh1024), 1024, name="mesh-1024"
    )
    configs.append(("mesh1024", big, mesh1024))
    return configs


def measure_backend_scaling(
    num_cpis: int = SCALING_CPIS, trials: int = SCALING_TRIALS
) -> list[dict]:
    """Best-of-``trials`` events/s of the default (lowered) core and the
    reference checker across the five machine scales.

    Trials are interleaved — each round runs every config on both cores —
    so a slow host period hits both rows alike instead of one of them.
    """
    from repro.des.backends import BACKEND_NAMES

    configs = _scaling_configs()
    best: dict[tuple[str, str], dict] = {}
    for _ in range(trials):
        for label, assignment, machine in configs:
            for backend in BACKEND_NAMES:
                pipeline = STAPPipeline(
                    STAPParams.paper(), assignment, machine=machine,
                    num_cpis=num_cpis, perf=True, backend=backend,
                )
                result = pipeline.run()
                record = result.perf.to_dict()
                record.update(
                    config=label,
                    ranks=assignment.total_nodes,
                    makespan=result.makespan,
                )
                kept = best.get((label, backend))
                if kept is None or record["events_per_second"] > kept["events_per_second"]:
                    best[(label, backend)] = record
    return list(best.values())


def measure_all_cases() -> list[dict]:
    """All three Table 7 cases, perf-instrumented, smallest first."""
    return [measure_case(key) for key in CASE_ORDER]


def measure_exec_comparison(jobs: int) -> dict:
    """Per-case wall-clock of serial vs ``jobs``-wide executor passes.

    Both passes use fresh caches so every point really simulates; the
    parallel pass's per-case seconds are measured inside the workers.
    """
    from repro.exec import ResultCache, SimPoint, run_points

    points = [
        SimPoint(STAPParams.paper(), CASES[key], num_cpis=NUM_CPIS)
        for key in CASE_ORDER
    ]

    def timed_pass(n_jobs: int) -> tuple[float, dict]:
        start = time.perf_counter()
        outcomes = run_points(points, jobs=n_jobs, cache=ResultCache())
        wall = time.perf_counter() - start
        per_case = {
            key: outcome.elapsed for key, outcome in zip(CASE_ORDER, outcomes)
        }
        for outcome in outcomes:
            outcome.unwrap()
        return wall, per_case

    serial_wall, serial_cases = timed_pass(1)
    parallel_wall, parallel_cases = timed_pass(jobs)
    return {
        "jobs": jobs,
        "usable_cpus": _usable_cpus(),
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "per_case": {
            key: {"serial_s": serial_cases[key], "parallel_s": parallel_cases[key]}
            for key in CASE_ORDER
        },
    }


def _plan_build_seconds() -> float:
    """Worker-side probe: seconds to obtain the default paper-scale
    KernelPlan (a cache hit in a warm-started worker)."""
    from repro.stap.plan import default_plan

    t0 = time.perf_counter()
    default_plan(STAPParams.paper())
    return time.perf_counter() - t0


def measure_warm_start() -> dict:
    """What the executor's pool initializer buys per worker.

    A cold pool worker pays the default-plan construction (and, under a
    spawn start method, the numpy/scipy imports) inside its first
    measured point; the ``_warm_start`` initializer moves that cost to
    pool spin-up.  Measured here as the first-task plan-acquisition time
    in a one-worker pool, cold vs warm-started.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.exec.executor import _warm_start
    from repro.stap.plan import default_plan

    default_plan.cache_clear()  # parent cache must not leak into forks
    params = STAPParams.paper()
    ctx = multiprocessing.get_context("fork")

    def first_task_seconds(warm: bool) -> float:
        kwargs = (
            dict(initializer=_warm_start, initargs=((params,),))
            if warm else {}
        )
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx,
                                 **kwargs) as pool:
            return pool.submit(_plan_build_seconds).result()

    cold = first_task_seconds(False)
    warm = first_task_seconds(True)
    return {
        "cold_first_task_seconds": cold,
        "warm_first_task_seconds": warm,
        "delta_seconds": cold - warm,
    }


def _print_record(record: dict) -> None:
    print(
        f"{record['case']:>6} ({record['nodes']:3d} nodes): "
        f"{record['wall_seconds']:6.2f} s wall, "
        f"{record['wall_seconds_per_cpi'] * 1e3:7.1f} ms/CPI, "
        f"{record['events_per_second']:9.0f} events/s, "
        f"{record['probes_per_message']:5.2f} probes/op"
    )


# -- pytest entry points ---------------------------------------------------------
@pytest.mark.parametrize("case_key", ["case3", "case2", "case1"])
def test_simspeed_case(benchmark, case_key):
    record = benchmark.pedantic(
        measure_case, args=(case_key,), rounds=1, iterations=1
    )
    print()
    _print_record(record)
    benchmark.extra_info["wall_seconds_per_cpi"] = round(
        record["wall_seconds_per_cpi"], 4
    )
    benchmark.extra_info["events_per_second"] = round(record["events_per_second"])
    benchmark.extra_info["probes_per_message"] = round(
        record["probes_per_message"], 3
    )
    # The indexed matcher's whole point: no linear scans left.
    assert record["probes_per_message"] < 2.0


@pytest.mark.bench_smoke
def test_simspeed_smoke():
    """Fast guard: all three cases at paper scale, JSON out, under a minute."""
    t0 = time.perf_counter()
    runs = measure_all_cases()
    elapsed = time.perf_counter() - t0
    print()
    for record in runs:
        _print_record(record)
    _merge_results({"runs": runs})
    print(f"wrote {RESULTS_PATH}")
    assert {r["case"] for r in runs} == set(CASES)
    assert elapsed < 60.0, f"smoke benchmark took {elapsed:.1f}s (budget 60s)"
    assert all(r["probes_per_message"] < 2.0 for r in runs)


@pytest.mark.bench_smoke
@pytest.mark.backends
def test_backend_speed_guard():
    """The default lowered core must not be slower than the reference.

    Table 7 case 1 (236 nodes) is the scale the core exists for; the
    acceptance bar is >= 2x, but on a noisy shared host this guard asserts
    the conservative invariant (lowered >= python events/s, best of two
    interleaved trials) so it never flakes while still catching a lowered
    core that regressed onto the slow path.
    """
    trials = {"python": [], "lowered": []}
    for _ in range(2):
        for backend in ("python", "lowered"):
            record = measure_case("case1", num_cpis=8, backend=backend)
            assert record["backend"] == backend
            trials[backend].append(record["events_per_second"])
    python_best = max(trials["python"])
    lowered_best = max(trials["lowered"])
    ratio = lowered_best / python_best if python_best else 0.0
    print()
    print(
        f"case1 events/s: python {python_best:9.0f}, lowered {lowered_best:9.0f} "
        f"({ratio:.2f}x)"
    )
    assert lowered_best >= python_best, (
        f"lowered backend slower than reference: {lowered_best:.0f} vs "
        f"{python_best:.0f} events/s"
    )


@pytest.mark.bench_smoke
@pytest.mark.exec
def test_exec_sweep_smoke():
    """The executor's acceptance sweep: 8 independent points, jobs=4.

    Asserts bit-identical metrics between serial and parallel execution
    and that a repeated sweep is answered entirely from the cache (zero
    new simulations, counter-verified).  The >= 2x wall-clock speedup is
    asserted only when the host actually has >= 4 usable CPUs — on fewer
    cores the parallel pass cannot physically be faster, but the numbers
    are still recorded.
    """
    from repro.exec import ResultCache
    from repro.experiments import speedup_series
    from repro.obs.metrics import metrics_registry

    node_counts = (2, 3, 4, 6, 8, 12, 16, 24)
    jobs = 4
    sweep = dict(num_cpis=NUM_CPIS)

    t0 = time.perf_counter()
    serial = speedup_series("cfar", node_counts, jobs=1, cache=ResultCache(), **sweep)
    serial_wall = time.perf_counter() - t0

    parallel_cache = ResultCache()
    t0 = time.perf_counter()
    parallel = speedup_series(
        "cfar", node_counts, jobs=jobs, cache=parallel_cache, **sweep
    )
    parallel_wall = time.perf_counter() - t0

    # Determinism: parallel results are bit-identical to serial ones.
    assert parallel == serial

    # Repeat: all cache hits, zero new simulations.
    with metrics_registry.collect():
        repeated = speedup_series(
            "cfar", node_counts, jobs=jobs, cache=parallel_cache, **sweep
        )
    counts = metrics_registry.snapshot()
    metrics_registry.reset()
    assert repeated == parallel
    simulated = (counts.value("exec_points_total", {"status": "simulated"})
                 + counts.value("exec_probes_total", {"source": "simulated"}))
    assert simulated == 0, counts
    hits = counts.value("exec_cache_hits_total", {"layer": "memory"})
    assert hits == len(node_counts), counts

    speedup = serial_wall / parallel_wall if parallel_wall else 0.0
    cpus = _usable_cpus()
    print()
    print(f"exec sweep ({len(node_counts)} points): serial {serial_wall:6.2f} s, "
          f"jobs={jobs} {parallel_wall:6.2f} s, speedup {speedup:.2f}x "
          f"({cpus} usable CPUs)")
    _merge_results({
        "exec_sweep": {
            "points": len(node_counts),
            "jobs": jobs,
            "usable_cpus": cpus,
            "serial_wall_seconds": serial_wall,
            "parallel_wall_seconds": parallel_wall,
            "speedup": speedup,
        }
    })
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"jobs={jobs} sweep only {speedup:.2f}x faster on {cpus} CPUs"
        )


@pytest.mark.bench_smoke
@pytest.mark.exec
def test_warm_start_delta():
    """The pool initializer must make a worker's first plan acquisition
    (effectively) free: a warm worker hits the memoized plan instead of
    rebuilding it."""
    record = measure_warm_start()
    print()
    print(f"warm start: cold {record['cold_first_task_seconds'] * 1e3:7.1f} ms, "
          f"warm {record['warm_first_task_seconds'] * 1e3:7.1f} ms "
          f"(delta {record['delta_seconds'] * 1e3:7.1f} ms)")
    _merge_results({"warm_start": record})
    assert record["warm_first_task_seconds"] <= record["cold_first_task_seconds"]
    # A warm hit is an lru_cache lookup; 50 ms is orders of magnitude of
    # slack for even a loaded host.
    assert record["warm_first_task_seconds"] < 0.05


@pytest.mark.bench_smoke
@pytest.mark.obs
def test_obs_overhead():
    """Guard the cost of the observability layer.

    Tracing records ~6 spans and ~1 message record per task iteration on
    top of timestamps the simulation computes anyway, so an obs-on run
    should stay within a small constant factor of obs-off — and obs-off
    must not pay for the layer's existence at all (that case is covered
    bit-exactly by the golden-fastpath tests; here we bound wall time).
    """

    def timed(trace: bool) -> tuple[float, dict]:
        t0 = time.perf_counter()
        record = measure_case("case3", trace=trace)
        return time.perf_counter() - t0, record

    off_s, off = timed(False)
    on_s, on = timed(True)
    ratio = on_s / off_s if off_s else float("inf")
    print()
    print(f"obs off: {off_s:6.2f} s   obs on: {on_s:6.2f} s   ratio {ratio:.2f}x")
    # Same simulated run either way.
    assert on["makespan"] == off["makespan"]
    assert on["network_messages"] == off["network_messages"]
    # Generous bound: recording is passive, so even slow hosts stay far
    # below this; a 3x blowup means the layer grew onto the hot path.
    assert ratio < 3.0, f"observability overhead {ratio:.2f}x (budget 3x)"
    _merge_results({
        "obs_overhead": {
            "off_wall_seconds": off_s,
            "on_wall_seconds": on_s,
            "ratio": ratio,
        }
    })


@pytest.mark.bench_smoke
@pytest.mark.metrics
def test_metrics_overhead():
    """Guard the cost of the campaign-metrics layer.

    Metrics are pull-based — one enabled check up front, one flush of
    already-maintained counters after the run — so a metered run must be
    simulated-identically and stay within 1.5x of an unmetered one.
    """
    from repro.obs.metrics import metrics_registry

    def timed(metered: bool) -> tuple[float, dict]:
        if metered:
            metrics_registry.enable(reset=True)
        try:
            t0 = time.perf_counter()
            record = measure_case("case3")
            return time.perf_counter() - t0, record
        finally:
            metrics_registry.disable()

    off_s, off = timed(False)
    on_s, on = timed(True)
    ratio = on_s / off_s if off_s else float("inf")
    print()
    print(f"metrics off: {off_s:6.2f} s   on: {on_s:6.2f} s   ratio {ratio:.2f}x")
    # Bit-identical simulated run either way.
    assert on["makespan"] == off["makespan"]
    assert on["events_processed"] == off["events_processed"]
    assert on["network_messages"] == off["network_messages"]
    assert ratio < 1.5, f"metrics overhead {ratio:.2f}x (budget 1.5x)"
    _merge_results({
        "metrics_overhead": {
            "off_wall_seconds": off_s,
            "on_wall_seconds": on_s,
            "ratio": ratio,
        }
    })


# -- script entry point ----------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    jobs = min(4, _usable_cpus())
    rest = list(argv)
    if "--full" in rest:
        rest.remove("--full")  # historical flag; all cases always run now
    backends_only = "--backends" in rest
    if backends_only:
        rest.remove("--backends")
    if "--jobs" in rest:
        at = rest.index("--jobs")
        try:
            jobs = int(rest[at + 1])
            del rest[at:at + 2]
        except (IndexError, ValueError):
            print("--jobs needs an integer argument", file=sys.stderr)
            return 2
    if rest:
        print(f"usage: {Path(__file__).name} [--jobs N] [--backends]", file=sys.stderr)
        print(f"unknown arguments: {' '.join(rest)}", file=sys.stderr)
        return 2

    if not backends_only:
        runs = []
        for key in CASE_ORDER:
            record = measure_case(key)
            _print_record(record)
            runs.append(record)

        comparison = measure_exec_comparison(jobs)
        print(f"executor: serial {comparison['serial_wall_seconds']:6.2f} s, "
              f"jobs={jobs} {comparison['parallel_wall_seconds']:6.2f} s, "
              f"speedup {comparison['speedup']:.2f}x "
              f"({comparison['usable_cpus']} usable CPUs)")
        warm = measure_warm_start()
        print(f"warm start: cold {warm['cold_first_task_seconds'] * 1e3:.1f} ms "
              f"-> warm {warm['warm_first_task_seconds'] * 1e3:.1f} ms per worker")
        _merge_results({"runs": runs, "exec": comparison, "warm_start": warm})

    scaling = measure_backend_scaling()
    for record in scaling:
        print(
            f"{record['config']:>10} ({record['ranks']:4d} ranks) "
            f"{record['backend']:>8}: {record['wall_seconds']:6.2f} s wall, "
            f"{record['events_per_second']:9.0f} events/s"
        )
    _merge_results({
        "backends": {
            "num_cpis": SCALING_CPIS,
            "best_of": SCALING_TRIALS,
            "usable_cpus": _usable_cpus(),
            "runs": scaling,
        }
    })
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
