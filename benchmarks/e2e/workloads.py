"""The four workloads: what each runs, how it is timed and checked.

Every workload follows one pattern:

1. **set-up**, repeated (once when tracing), the last repetition kept:
   inputs are synthesized from the seed, plans and the pipeline are
   built, and one warm-up operation runs;
2. **timed operations** with nothing instrumented, until ``seconds`` have
   passed — or, when tracing, one untraced and one traced operation.  On
   the simulated paths an operation is one full run followed by
   ``LATENCY_RUNS`` one-CPI runs, the latency samples;
3. **peak memory** is read;
4. **checks** of every operation's output, outside every timing.

An operation that raises is counted as failed and the loop goes on.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import (
    CASE1,
    CASE3,
    CPIStream,
    ParallelSTAP,
    RadarScenario,
    SequentialSTAP,
    STAPParams,
    STAPPipeline,
    StagePlan,
    TASK_NAMES,
    TargetTruth,
)
from repro.obs.metrics import metrics_registry

from benchmarks.e2e.layers import (
    SEQUENTIAL_ENTRIES,
    SIM_PACKAGES,
    TASK_ENTRIES,
    entry_seconds,
    kernel_layers,
    profiled,
    rt_layers,
    self_seconds,
)

PAPER = STAPParams.paper()
#: Set-up is repeated at least this often, and for at least this long (up
#: to the maximum count), per timed invocation; ``setup_s`` is the median
#: repetition.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 40
#: chain-seq collects at least this many per-CPI samples, so that ten
#: lie beyond the p90 printed beside the median.
CHAIN_MIN_SAMPLES = 100
#: One-CPI runs after each full run of a simulated path: a simulated CPI
#: has no host latency of its own, so a latency sample is the time to
#: answer for one CPI, pipeline start, fill and drain included.
LATENCY_RUNS = 5
#: Relative tolerance on a detection's power and threshold; the detected
#: cells must match exactly.  The real runtime's CFAR thresholds are not
#: always bit-identical to the reference's: at seed 14, CPI 16, one
#: differs by 5e-10 of its value.
DETECTION_RTOL = 1e-6
#: Channel ring depth of the real runtime: the paper's double buffering.
RT_DEPTH = 2
#: Per-run limit for the real runtime; a healthy paper-scale run takes
#: about five seconds.
RT_TIMEOUT_S = 60.0
#: Modeled outputs ``sim-case1`` must reproduce exactly.
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass
class Outcome:
    """What one workload invocation measured and checked."""

    #: Seconds of each set-up repetition.
    setup_s: list[float]
    #: CPIs per host second of each successful timed operation.
    cpis_per_s: list[float]
    #: Latency samples: per CPI, or per run where a run is the unit.
    latency_s: list[float]
    peak_rss_mb: float
    #: Timed operations run (successful or not).
    operations: int
    #: Checked units (CPIs, or runs for sim-case1; a one-CPI run is one
    #: unit) and how many failed.
    attempted: int
    failed: int
    #: One line per failed check, naming what differed.
    mismatches: list[str] = field(default_factory=list)
    #: Per-layer metrics; filled only by a traced invocation.
    layers: dict[str, float] = field(default_factory=dict)


# -- inputs ------------------------------------------------------------------------
def scenario(params: STAPParams, seed: int) -> RadarScenario:
    """40 dB clutter plus two targets, every draw made from ``seed``."""
    rng = np.random.default_rng(seed)
    margin = max(params.waveform_length, params.num_ranges // 8)
    targets = tuple(
        TargetTruth(
            range_cell=int(rng.integers(margin, params.num_ranges - margin)),
            normalized_doppler=float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4)),
            angle_deg=float(rng.uniform(-15.0, 15.0)),
            snr_db=float(rng.uniform(3.0, 10.0)),
        )
        for _ in range(2)
    )
    return RadarScenario(clutter_to_noise_db=40.0, targets=targets, seed=seed)


def timed_cubes(params: STAPParams, seed: int, count: int, seconds: list):
    """Yield the seed's first ``count`` cubes, appending each one's
    synthesis time to ``seconds``."""
    stream = CPIStream(params, scenario(params, seed))
    for index in range(count):
        start = perf_counter()
        cube = stream.cube(index)
        seconds.append(perf_counter() - start)
        yield cube


class CubeStream:
    """Pre-generated cubes served where a pipeline expects a
    :class:`~repro.radar.datacube.CPIStream`, so that synthesis stays out
    of the timed runs."""

    def __init__(self, params: STAPParams, cubes):
        self.params = params
        self.azimuth_cycle = 1
        self._cubes = cubes

    def cube(self, cpi_index: int):
        return self._cubes[cpi_index]


# -- checks ------------------------------------------------------------------------
def reference_detections(params: STAPParams, cubes) -> list[tuple]:
    """Sorted detections of a fresh sequential reference, CPI by CPI."""
    stap = SequentialSTAP(params)
    return [tuple(sorted(stap.process(cube).detections)) for cube in cubes]


def same_detections(got, expected) -> bool:
    """The same cells detected, with power and threshold equal to within
    :data:`DETECTION_RTOL`.  Both are sorted, so cells pair up in order."""
    return len(got) == len(expected) and all(
        (g.doppler_bin, g.beam, g.range_cell) == (e.doppler_bin, e.beam, e.range_cell)
        and math.isclose(g.power, e.power, rel_tol=DETECTION_RTOL)
        and math.isclose(g.threshold, e.threshold, rel_tol=DETECTION_RTOL)
        for g, e in zip(got, expected))


def detection_mismatches(reports, reference, label: str) -> list[str]:
    """One line per CPI whose detections differ from the reference's."""
    found = {report.cpi_index: tuple(sorted(report.detections)) for report in reports}
    lines = []
    for cpi, expected in enumerate(reference):
        got = found.get(cpi)
        if got is None:
            lines.append(f"{label} CPI {cpi}: no report")
        elif not same_detections(got, expected):
            lines.append(f"{label} CPI {cpi}: {len(got)} detections differ "
                         f"from the reference's {len(expected)}")
    return lines


def sim_signature(result) -> dict:
    """The modeled outputs the sim-case1 check pins, flattened: makespan,
    simulated throughput and latency, event/message/byte counts and every
    task's Figure 10 recv/comp/send split."""
    signature = {
        "makespan": result.makespan,
        "throughput": result.metrics.measured_throughput,
        "latency": result.metrics.measured_latency,
        "events": result.perf.events_processed,
        "messages": result.network_messages,
        "bytes": result.network_bytes,
    }
    for name, task in result.metrics.tasks.items():
        signature[f"{name}.recv"] = task.recv
        signature[f"{name}.comp"] = task.comp
        signature[f"{name}.send"] = task.send
    return signature


def sim_mismatches(got: dict, expected: dict) -> list[str]:
    """Every :func:`sim_signature` entry that differs from ``expected``.

    Values compare by ``repr``: exact for floats (``repr`` round-trips),
    and a NaN (a run too short for a steady state) equals a NaN.
    """
    return [
        f"{key} {got.get(key)!r} != expected {expected.get(key)!r}"
        for key in sorted(got.keys() | expected.keys())
        if repr(got.get(key)) != repr(expected.get(key))
    ]


# -- measurement helpers -----------------------------------------------------------
def _setup(build, trace: bool):
    """Run ``build`` at least ``SETUP_MIN_REPEATS`` times and for at least
    ``SETUP_MIN_SECONDS``, at most ``SETUP_MAX_REPEATS`` times (once when
    tracing); keep the last result."""
    seconds, state = [], None
    repeats, floor = (1, 0.0) if trace else (SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
    while len(seconds) < repeats or (
            sum(seconds) < floor and len(seconds) < SETUP_MAX_REPEATS):
        state = None  # release the previous repetition's inputs first
        gc.collect()
        start = perf_counter()
        state = build()
        seconds.append(perf_counter() - start)
    return state, seconds


def _timed(operation, seconds: float, min_ops: int):
    """Repeat ``operation`` until ``seconds`` have passed and at least
    ``min_ops`` ran.  An exception is kept as the result.

    The heap is collected before every operation: the simulator pauses
    the cyclic collector while it runs, and a previous run's cycles must
    neither be swept inside the next timing nor add to its peak memory.
    """
    walls, results = [], []
    start = perf_counter()
    while len(results) < min_ops or perf_counter() - start < seconds:
        gc.collect()
        begun = perf_counter()
        try:
            result = operation()
        except Exception as exc:  # counted as a failed operation
            result = exc
        walls.append(perf_counter() - begun)
        results.append(result)
    return walls, results


def _traced(operation, instrumented):
    """One untraced operation, then ``instrumented(operation)`` returning
    ``(result, wall, extra)``.  Returns both walls, both results, extra."""
    untraced_walls, untraced = _timed(operation, 0.0, 1)
    if isinstance(untraced[0], Exception):
        raise untraced[0]
    gc.collect()
    result, wall, extra = instrumented(operation)
    return [untraced_walls[0], wall], [untraced[0], result], extra


def _peak_rss_mb(children: bool = False) -> float:
    """Peak resident set (``ru_maxrss`` is KiB on Linux), plus the
    largest waited-for child's when ``children``.  The kernel keeps only
    that one child's peak, so growth in any other worker does not show."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _tally(results, check, units_per_op: int):
    """``(failed units, mismatch lines)`` over all operations.  ``check``
    maps ``(index, result)`` to ``(failed units, lines)``."""
    failed, lines = 0, []
    for index, result in enumerate(results):
        if isinstance(result, Exception):
            failed += units_per_op
            lines.append(f"run {index}: raised "
                         + "".join(traceback.format_exception_only(result)).strip())
        else:
            count, found = check(index, result)
            failed += count
            lines += found
    return failed, lines


def _ok(walls, results):
    return [(w, r) for w, r in zip(walls, results) if not isinstance(r, Exception)]


def _rounds(pipeline, single, seconds: float, keep):
    """Untraced operations of a simulated path until ``seconds`` have
    passed: one full run, then :data:`LATENCY_RUNS` one-CPI runs, each
    timed on its own.  An operation's result is ``(full seconds, kept
    full result, [(one-CPI seconds, kept one-CPI result)])``."""
    def one_round():
        start = perf_counter()
        result = pipeline.run()
        full_s = perf_counter() - start
        full, result = keep(result), None
        singles = []
        for _ in range(LATENCY_RUNS):
            gc.collect()
            start = perf_counter()
            result = single.run()
            singles.append((perf_counter() - start, keep(result)))
        return full_s, full, singles

    return _timed(one_round, seconds, 1)[1]


def _round_samples(rounds, num_cpis: int):
    """``(cpis_per_s, latency_s)`` samples of the successful rounds."""
    ok = [r for r in rounds if not isinstance(r, Exception)]
    return ([num_cpis / full_s for full_s, _, _ in ok],
            [s for _, _, singles in ok for s, _ in singles])


def _simulation_layers(params, num_cpis, walls, results, stats, entries=None):
    """Layer metrics of a simulated path: exact counts from the untraced
    run's :class:`~repro.perf.PerfReport`, self time per package and (for
    the functional path) kernel entry time from the profile."""
    perf = results[0].perf
    packages = self_seconds(stats)
    layers = {f"{name}.self_s": packages.get(name, 0.0) / num_cpis
              for name in SIM_PACKAGES}
    layers.update({
        "des.events_per_s": perf.events_per_second,
        "des.plan_build_s": perf.plan_build_seconds,
        "des.events_per_cpi": perf.events_processed / num_cpis,
        "mpi.match_probes_per_cpi": perf.match_probes / num_cpis,
        "machine.messages_per_cpi": perf.network_messages / num_cpis,
        "machine.bytes_per_cpi": perf.network_bytes / num_cpis,
        "trace.overhead": walls[1] / walls[0],
    })
    if entries is not None:
        kernels = entry_seconds(stats, entries)
        layers.update(kernel_layers(
            params, {name: s / num_cpis for name, s in kernels.items()}))
    return layers


# -- workloads ---------------------------------------------------------------------
def sim_case1(seed: int, seconds: float, trace: bool, *, params=PAPER,
              assignment=CASE1, num_cpis: int = 25, expected=None) -> Outcome:
    """Modeled pipeline, Table 7 case 1 (236 ranks), reference simulator
    core.  The seed is unused: the modeled path moves sizes, not data.

    ``perf=True`` only reads the engine's always-on counters before and
    after the run, for the event count the check pins.  ``expected`` maps
    a CPI count (as a string) to the :func:`sim_signature` pinned for it.
    """
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())["sim-case1"]

    def build():
        pipeline = STAPPipeline(params, assignment, num_cpis=num_cpis, perf=True)
        single = STAPPipeline(params, assignment, num_cpis=1, perf=True)
        single.run()  # warm-up
        return pipeline, single

    (pipeline, single), setup_s = _setup(build, trace)
    layers = {}
    if trace:
        walls, results, stats = _traced(pipeline.run, profiled)
        layers = _simulation_layers(params, num_cpis, walls, results, stats)
        rounds = [(w, sim_signature(r), []) for w, r in zip(walls, results)]
    else:
        rounds = _rounds(pipeline, single, seconds, sim_signature)
    peak = _peak_rss_mb()

    def check(index, round_):
        _, full, singles = round_
        runs = [(f"run {index}", full, expected[str(num_cpis)])]
        runs += [(f"run {index} one-CPI {k}", signature, expected["1"])
                 for k, (_, signature) in enumerate(singles)]
        failed, lines = 0, []
        for label, signature, pinned in runs:
            found = sim_mismatches(signature, pinned)
            failed += bool(found)
            lines += [f"{label}: {line}" for line in found]
        return failed, lines

    units = 1 if trace else 1 + LATENCY_RUNS
    failed, mismatches = _tally(rounds, check, units)
    cpis_per_s, latency_s = _round_samples(rounds, num_cpis)
    return Outcome(
        setup_s=setup_s, cpis_per_s=cpis_per_s, latency_s=latency_s,
        peak_rss_mb=peak, operations=len(rounds), attempted=units * len(rounds),
        failed=failed, mismatches=mismatches, layers=layers,
    )


def chain_seq(seed: int, seconds: float, trace: bool, *, params=PAPER,
              num_cpis: int = 25) -> Outcome:
    """The sequential reference over pre-generated cubes: passes over all
    of them, each with a fresh :class:`SequentialSTAP`, every
    ``process()`` call timed on its own."""
    def build():
        cube_s = []
        cubes = list(timed_cubes(params, seed, num_cpis, cube_s))
        SequentialSTAP(params).process(cubes[0])  # warm-up
        return cubes, cube_s

    (cubes, cube_s), setup_s = _setup(build, trace)

    def one_pass():
        stap = SequentialSTAP(params)
        reports, per_cpi = [], []
        for cube in cubes:
            start = perf_counter()
            reports.append(stap.process(cube))
            per_cpi.append(perf_counter() - start)
        return reports, per_cpi

    layers = {}
    if trace:
        walls, results, stats = _traced(one_pass, profiled)
        kernels = entry_seconds(stats, SEQUENTIAL_ENTRIES)
        layers = kernel_layers(params, {k: s / num_cpis for k, s in kernels.items()})
        layers["radar.cube_s"] = statistics.median(cube_s)
        layers["trace.overhead"] = walls[1] / walls[0]
    else:
        min_passes = math.ceil(CHAIN_MIN_SAMPLES / num_cpis)
        walls, results = _timed(one_pass, seconds, min_passes)
    peak = _peak_rss_mb()

    reference = reference_detections(params, cubes)

    def check(index, result):
        lines = detection_mismatches(result[0], reference, f"pass {index}")
        return len(lines), lines

    failed, mismatches = _tally(results, check, num_cpis)
    ok = _ok(walls, results)
    return Outcome(
        setup_s=setup_s, cpis_per_s=[num_cpis / w for w, _ in ok],
        latency_s=[s for _, (_, per_cpi) in ok for s in per_cpi],
        peak_rss_mb=peak, operations=len(results),
        attempted=num_cpis * len(results), failed=failed,
        mismatches=mismatches, layers=layers,
    )


def functional_case3(seed: int, seconds: float, trace: bool, *, params=PAPER,
                     assignment=CASE3, num_cpis: int = 10) -> Outcome:
    """Functional pipeline, Table 7 case 3 (59 ranks), over pre-generated
    cubes: real kernels on per-rank blocks inside the simulation."""
    def build():
        cube_s = []
        cubes = list(timed_cubes(params, seed, num_cpis, cube_s))
        stream = CubeStream(params, cubes)
        pipeline = STAPPipeline(params, assignment, mode="functional",
                                stream=stream, num_cpis=num_cpis, perf=True)
        single = STAPPipeline(params, assignment, mode="functional",
                              stream=stream, num_cpis=1)
        single.run()  # warm-up
        return pipeline, single, cubes, cube_s

    (pipeline, single, cubes, cube_s), setup_s = _setup(build, trace)
    layers = {}
    if trace:
        walls, results, stats = _traced(pipeline.run, profiled)
        layers = _simulation_layers(params, num_cpis, walls, results, stats,
                                    TASK_ENTRIES)
        layers["radar.cube_s"] = statistics.median(cube_s)
        rounds = [(w, r.reports, []) for w, r in zip(walls, results)]
    else:
        rounds = _rounds(pipeline, single, seconds, lambda result: result.reports)
    peak = _peak_rss_mb()

    reference = reference_detections(params, cubes)

    def check(index, round_):
        _, full, singles = round_
        lines = detection_mismatches(full, reference, f"run {index}")
        for k, (_, found) in enumerate(singles):
            lines += detection_mismatches(found, reference[:1],
                                          f"run {index} one-CPI {k}")
        return len(lines), lines

    units = num_cpis if trace else num_cpis + LATENCY_RUNS
    failed, mismatches = _tally(rounds, check, units)
    cpis_per_s, latency_s = _round_samples(rounds, num_cpis)
    return Outcome(
        setup_s=setup_s, cpis_per_s=cpis_per_s, latency_s=latency_s,
        peak_rss_mb=peak, operations=len(rounds),
        attempted=units * len(rounds), failed=failed,
        mismatches=mismatches, layers=layers,
    )


def rt_paper(seed: int, seconds: float, trace: bool, *, params=PAPER,
             num_cpis: int = 24) -> Outcome:
    """The real runtime: one worker process per stage, double-buffered
    shared-memory channels.  A closed loop: the Doppler worker synthesizes
    each cube inline and sends as fast as backpressure allows."""
    stream = CPIStream(params, scenario(params, seed))
    plan = StagePlan.uniform(1)

    def build():
        runtime = ParallelSTAP(params, stream, num_cpis=num_cpis, plan=plan,
                               depth=RT_DEPTH)
        ParallelSTAP(params, stream, num_cpis=2, plan=plan, depth=RT_DEPTH,
                     kernel_plan=runtime.kernel_plan).run(timeout=RT_TIMEOUT_S)
        return runtime

    runtime, setup_s = _setup(build, trace)

    def run():
        return runtime.run(timeout=RT_TIMEOUT_S)

    def metered(operation):
        metrics_registry.enable(reset=True)
        try:
            start = perf_counter()
            result = operation()
            return result, perf_counter() - start, None
        finally:
            metrics_registry.disable()
            metrics_registry.reset()

    if trace:
        walls, results, _ = _traced(run, metered)
    else:
        walls, results = _timed(run, seconds, 1)
    peak = _peak_rss_mb(children=True)

    cube_s = []
    reference = reference_detections(
        params, timed_cubes(params, seed, num_cpis, cube_s))
    layers = {}
    if trace:
        stages = rt_layers(results[1].metrics, num_cpis)
        layers = kernel_layers(params, {
            name: stages[f"rt.{name}.comp_s"] for name in TASK_NAMES})
        layers.update(stages)
        layers["radar.cube_s"] = statistics.median(cube_s)
        layers["trace.overhead"] = walls[1] / walls[0]

    def check(index, result):
        lines = detection_mismatches(result.reports, reference, f"run {index}")
        return len(lines), lines

    failed, mismatches = _tally(results, check, num_cpis)
    ok = [result for _, result in _ok(walls, results)]
    return Outcome(
        setup_s=setup_s, cpis_per_s=[r.steady_throughput for r in ok],
        latency_s=[r.latency for r in ok], peak_rss_mb=peak,
        operations=len(results), attempted=num_cpis * len(results),
        failed=failed, mismatches=mismatches, layers=layers,
    )


#: Workload name -> function, in the order BENCHMARK.json lists them.
WORKLOADS = {
    "sim-case1": sim_case1,
    "chain-seq": chain_seq,
    "functional-case3": functional_case3,
    "rt-paper": rt_paper,
}
