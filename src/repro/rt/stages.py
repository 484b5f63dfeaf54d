"""Stage worker bodies for the process-parallel runtime.

Each function is the main loop of one worker process executing one
replica of one paper task, on whole CPIs.  The compute is the same code
the sequential reference (:class:`~repro.stap.reference.SequentialSTAP`)
and the simulator's tasks call — the :mod:`repro.stap` kernels, the
weight computers and the plan's cold-start weights — on arrays with the
reference's memory layout: the channels carry the blocks the reference
materializes (``staggered[easy_bins]``, training extracts, weight
tensors), and consumers take the same views of them (``[:, :J, :]``).
What this module adds is transport: shared-memory channels, routing and
the per-stage metrics.  Every array a worker sends is copied into a
channel slot, so each worker computes into its own
:class:`~repro.stap.workspace.Workspace` and allocates no per-CPI
cube; only the easy training block stays fresh, as the reference's
history keeps it.

Temporal weight semantics (Section 5): the weights applied to CPI ``i``
were trained on the previous visit to the same azimuth, ``i - A`` for
cycle ``A``.  The weight workers therefore *tag* each weight message
with the future CPI it is for (``s + A`` after training on ``s``), and
the beamform workers use the plan's cold-start weights for the first
visit to each azimuth (``i < A``), as every path does.

Every worker knows its full CPI quota up front
(:meth:`~repro.rt.plan.StagePlan.stage_cpis`) and processes it strictly
in order, which is what makes every channel's arrival order equal its
consumption order (see :mod:`repro.rt.plan`).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.assignment import TASK_NAMES
from repro.rt.metrics import StageMetrics
from repro.stap.beamform import assemble_beamformed, beamform_easy, beamform_hard
from repro.stap.cfar import cfar_detect
from repro.stap.doppler import doppler_filter
from repro.stap.easy_weights import EasyWeightComputer, extract_easy_training
from repro.stap.hard_weights import (
    HardWeightComputer,
    extract_hard_training,
    segment_grid,
)
from repro.stap.pulse_compression import pulse_compress
from repro.stap.workspace import Workspace


class RtContext:
    """Everything a worker needs, inherited whole across ``fork``."""

    def __init__(self, params, plan, kernel_plan, stream, num_cpis,
                 azimuth_cycle, channels, result_q, abort, metered):
        self.params = params
        self.plan = plan
        self.kernel_plan = kernel_plan
        self.stream = stream
        self.num_cpis = num_cpis
        self.azimuth_cycle = azimuth_cycle
        self.channels = channels  # (edge, src_replica, dst_replica) -> ShmChannel
        self.result_q = result_q
        self.abort = abort
        self.metered = metered

    # -- plumbing ----------------------------------------------------------------
    def post(self, message) -> None:
        self.result_q.put(message)

    def channel(self, edge: str, src: int, dst: int):
        return self.channels[(edge, src, dst)]

    def my_cpis(self, stage: str, replica: int) -> list[int]:
        return self.plan.stage_cpis(stage, replica, self.num_cpis,
                                    self.azimuth_cycle)

    def send(self, edge: str, src: int, dst: int, array, cpi: int,
             metrics: StageMetrics) -> None:
        self.channel(edge, src, dst).send(
            array, cpi, self.abort, wait_observer=metrics.timed_backpressure)

    def recv(self, edge: str, src: int, dst: int, cpi: int,
             metrics: StageMetrics):
        return self.channel(edge, src, dst).recv(
            cpi, self.abort, wait_observer=metrics.timed_wait)


def _comp_clock(metrics: StageMetrics):
    return perf_counter() if metrics.enabled else None


def _comp_done(metrics: StageMetrics, started) -> None:
    if started is not None:
        metrics.observe_comp(perf_counter() - started)


# -- stage 0: Doppler filter (also the runtime's data source) ----------------------
def run_doppler(ctx: RtContext, replica: int, metrics: StageMetrics) -> None:
    params, plan = ctx.params, ctx.plan
    kp = ctx.kernel_plan
    A = ctx.azimuth_cycle
    r_ew = plan.of("easy_weight")
    r_hw = plan.of("hard_weight")
    r_ebf = plan.of("easy_beamform")
    r_hbf = plan.of("hard_beamform")
    ws = Workspace()
    for i in ctx.my_cpis("doppler", replica):
        ctx.post(("start", i, perf_counter()))
        cube = ctx.stream.cube(i)
        azimuth = cube.azimuth
        if azimuth != i % A:
            raise RuntimeError(
                f"stream azimuth {azimuth} for CPI {i} breaks the cyclic "
                f"schedule (expected {i % A}); the runtime's azimuth "
                "routing requires azimuth_of(i) == i % azimuth_cycle"
            )
        clock = perf_counter()
        staggered = doppler_filter(cube, window=kp.doppler_window, workspace=ws)
        easy_train = extract_easy_training(staggered, params)
        hard_train = extract_hard_training(staggered, params, ws)
        comp = perf_counter() - clock
        # The exact blocks the sequential reference materializes with
        # fancy indexing (``staggered[bins]``, C-contiguous), gathered
        # straight into the channel slots.  Waiting for a slot counts as
        # backpressure, the gathers as comp: one observation per CPI.
        for edge, bins, dst in (("easy_data", params.easy_bins, i % r_ebf),
                                ("hard_data", params.hard_bins, i % r_hbf)):
            channel = ctx.channel(edge, replica, dst)
            slot = channel.claim(ctx.abort, metrics.timed_backpressure)
            clock = perf_counter()
            # mode="wrap" indexes like fancy indexing; the default "raise"
            # would gather into a scratch copy of the slot first.
            np.take(staggered, bins, axis=0, out=channel.view(slot),
                    mode="wrap")
            comp += perf_counter() - clock
            channel.publish(slot, i)
        metrics.observe_comp(comp)
        ctx.send("easy_train", replica, azimuth % r_ew, easy_train, i, metrics)
        ctx.send("hard_train", replica, azimuth % r_hw, hard_train, i, metrics)
        metrics.count_item()


# -- stage 1: easy weights (stateful per azimuth) ----------------------------------
def run_easy_weight(ctx: RtContext, replica: int,
                    metrics: StageMetrics) -> None:
    plan = ctx.plan
    A = ctx.azimuth_cycle
    r_d = plan.of("doppler")
    r_ebf = plan.of("easy_beamform")
    computer = EasyWeightComputer(ctx.kernel_plan, workspace=Workspace())
    for s in ctx.my_cpis("easy_weight", replica):
        azimuth = s % A
        slot, view = ctx.recv("easy_train", s % r_d, replica, s, metrics)
        # The computer's history keeps the array across visits, so take
        # ownership with a copy before handing the slot back.
        training = view.copy()
        ctx.channel("easy_train", s % r_d, replica).release(slot)
        started = _comp_clock(metrics)
        computer.push_training(training, azimuth)
        target = s + A  # the next visit to this azimuth
        if target < ctx.num_cpis:
            weights = computer.compute_weights(azimuth)
            _comp_done(metrics, started)
            ctx.send("easy_w", replica, target % r_ebf, weights, target,
                     metrics)
        else:
            _comp_done(metrics, started)
        metrics.count_item()


# -- stage 2: hard weights (recursive QR per azimuth) ------------------------------
def run_hard_weight(ctx: RtContext, replica: int,
                    metrics: StageMetrics) -> None:
    plan = ctx.plan
    A = ctx.azimuth_cycle
    r_d = plan.of("doppler")
    r_hbf = plan.of("hard_beamform")
    computer = HardWeightComputer(ctx.kernel_plan, workspace=Workspace())
    for s in ctx.my_cpis("hard_weight", replica):
        azimuth = s % A
        slot, view = ctx.recv("hard_train", s % r_d, replica, s, metrics)
        started = _comp_clock(metrics)
        # The recursion absorbs the rows eagerly (nothing retains the
        # view), so no defensive copy is needed before releasing.
        computer.update(view, azimuth)
        ctx.channel("hard_train", s % r_d, replica).release(slot)
        target = s + A
        if target < ctx.num_cpis:
            weights = computer.compute_weights(azimuth)
            _comp_done(metrics, started)
            ctx.send("hard_w", replica, target % r_hbf, weights, target,
                     metrics)
        else:
            _comp_done(metrics, started)
        metrics.count_item()


# -- stage 3: easy beamforming -----------------------------------------------------
def run_easy_beamform(ctx: RtContext, replica: int,
                      metrics: StageMetrics) -> None:
    params, plan = ctx.params, ctx.plan
    A = ctx.azimuth_cycle
    J = params.num_channels
    r_d = plan.of("doppler")
    r_ew = plan.of("easy_weight")
    r_pc = plan.of("pulse_compression")
    cold_weights = ctx.kernel_plan.cold_easy_weights(params.easy_bins)
    ws = Workspace()
    for i in ctx.my_cpis("easy_beamform", replica):
        azimuth = i % A
        dslot, data = ctx.recv("easy_data", i % r_d, replica, i, metrics)
        wslot = None
        if i < A:  # first visit to this azimuth
            weights = cold_weights
            src = None
        else:
            src = azimuth % r_ew
            wslot, weights = ctx.recv("easy_w", src, replica, i, metrics)
        started = _comp_clock(metrics)
        beams = beamform_easy(data[:, :J, :], weights, params, ws)
        _comp_done(metrics, started)
        if wslot is not None:
            ctx.channel("easy_w", src, replica).release(wslot)
        ctx.channel("easy_data", i % r_d, replica).release(dslot)
        ctx.send("easy_y", replica, i % r_pc, beams, i, metrics)
        metrics.count_item()


# -- stage 4: hard beamforming -----------------------------------------------------
def run_hard_beamform(ctx: RtContext, replica: int,
                      metrics: StageMetrics) -> None:
    params, plan = ctx.params, ctx.plan
    A = ctx.azimuth_cycle
    r_d = plan.of("doppler")
    r_hw = plan.of("hard_weight")
    r_pc = plan.of("pulse_compression")
    cold_weights = ctx.kernel_plan.cold_hard_weights(
        segment_grid(params, params.hard_bins))
    ws = Workspace()
    for i in ctx.my_cpis("hard_beamform", replica):
        azimuth = i % A
        dslot, data = ctx.recv("hard_data", i % r_d, replica, i, metrics)
        wslot = None
        if i < A:  # first visit to this azimuth
            weights = cold_weights
            src = None
        else:
            src = azimuth % r_hw
            wslot, weights = ctx.recv("hard_w", src, replica, i, metrics)
        started = _comp_clock(metrics)
        beams = beamform_hard(data, weights, params, ws)
        _comp_done(metrics, started)
        if wslot is not None:
            ctx.channel("hard_w", src, replica).release(wslot)
        ctx.channel("hard_data", i % r_d, replica).release(dslot)
        ctx.send("hard_y", replica, i % r_pc, beams, i, metrics)
        metrics.count_item()


# -- stage 5: pulse compression (joins the two beam halves) ------------------------
def run_pulse_compression(ctx: RtContext, replica: int,
                          metrics: StageMetrics) -> None:
    params, plan = ctx.params, ctx.plan
    r_ebf = plan.of("easy_beamform")
    r_hbf = plan.of("hard_beamform")
    r_cfar = plan.of("cfar")
    replica_freq = ctx.kernel_plan.replica_freq
    ws = Workspace()
    for i in ctx.my_cpis("pulse_compression", replica):
        eslot, easy_y = ctx.recv("easy_y", i % r_ebf, replica, i, metrics)
        hslot, hard_y = ctx.recv("hard_y", i % r_hbf, replica, i, metrics)
        started = _comp_clock(metrics)
        beams = assemble_beamformed(easy_y, hard_y, params, ws)
        ctx.channel("easy_y", i % r_ebf, replica).release(eslot)
        ctx.channel("hard_y", i % r_hbf, replica).release(hslot)
        power = pulse_compress(beams, params, replica_freq, ws)
        _comp_done(metrics, started)
        ctx.send("power", replica, i % r_cfar, power, i, metrics)
        metrics.count_item()


# -- stage 6: CFAR (emits the detection reports) -----------------------------------
def run_cfar(ctx: RtContext, replica: int, metrics: StageMetrics) -> None:
    params, plan = ctx.params, ctx.plan
    r_pc = plan.of("pulse_compression")
    factor = ctx.kernel_plan.cfar_factor
    ws = Workspace()
    for i in ctx.my_cpis("cfar", replica):
        slot, power = ctx.recv("power", i % r_pc, replica, i, metrics)
        started = _comp_clock(metrics)
        detections = cfar_detect(power, params, factor=factor, workspace=ws)
        _comp_done(metrics, started)
        ctx.channel("power", i % r_pc, replica).release(slot)
        ctx.post(("report", i, tuple(detections), perf_counter()))
        metrics.count_item()


STAGE_BODIES = {
    "doppler": run_doppler,
    "easy_weight": run_easy_weight,
    "hard_weight": run_hard_weight,
    "easy_beamform": run_easy_beamform,
    "hard_beamform": run_hard_beamform,
    "pulse_compression": run_pulse_compression,
    "cfar": run_cfar,
}
assert set(STAGE_BODIES) == set(TASK_NAMES)


def run_stage(ctx: RtContext, stage: str, replica: int) -> None:
    """Dispatch one worker's main loop (called inside the worker process)."""
    metrics = StageMetrics(stage)
    STAGE_BODIES[stage](ctx, replica, metrics)
