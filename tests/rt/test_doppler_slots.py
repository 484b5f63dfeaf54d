"""The Doppler stage gathers its data blocks straight into channel slots.

The worker claims a slot on each data edge, fills it with the block the
reference beamforms and publishes it.  Running the stage body in this
process (real channels, no fork) checks that every ``easy_data`` slot
holds exactly the reference's first-window ``staggered[bins, :J]`` and
every ``hard_data`` slot its ``staggered[bins]``, both in the cube's
dtype, and that the Figure 10 split stays honest: one comp observation
per CPI, the copies inside it, and one backpressure observation per
claimed slot.
"""

import multiprocessing
import queue
import threading

import numpy as np
import pytest

from repro import CPIStream, ParallelSTAP
from repro.obs.metrics import MetricsRegistry, series_name
from repro.rt.metrics import StageMetrics
from repro.rt.plan import StagePlan
from repro.rt.stages import RtContext, run_doppler
from repro.stap.doppler import doppler_filter

from tests.core.test_golden_functional import golden_scenario

pytestmark = pytest.mark.rt

NUM_CPIS = 2  # every channel has two slots: the stage never blocks
#: Data and training edges the Doppler stage feeds, one slot each per CPI.
SENDS_PER_CPI = 4


@pytest.fixture
def doppler_run(tiny_params):
    stream = CPIStream(tiny_params, golden_scenario())
    runtime = ParallelSTAP(tiny_params, stream, num_cpis=NUM_CPIS,
                           plan=StagePlan.uniform(1))
    channels = runtime._build_channels(multiprocessing.get_context("fork"))
    ctx = RtContext(
        params=tiny_params, plan=runtime.plan, kernel_plan=runtime.kernel_plan,
        stream=stream, num_cpis=NUM_CPIS, azimuth_cycle=1, channels=channels,
        result_q=queue.SimpleQueue(), abort=threading.Event(), metered=True)
    registry = MetricsRegistry()
    registry.enable()
    try:
        run_doppler(ctx, 0, StageMetrics("doppler", registry=registry))
        yield ctx, registry.snapshot()
    finally:
        for channel in channels.values():
            channel.destroy()


def test_data_slots_hold_the_reference_blocks(doppler_run, tiny_params):
    ctx, _ = doppler_run
    window = ctx.kernel_plan.doppler_window
    for cpi in range(NUM_CPIS):
        staggered = doppler_filter(ctx.stream.cube(cpi), window=window)
        J = tiny_params.num_channels
        for edge, expected in (
                ("easy_data", staggered[tiny_params.easy_bins, :J]),
                ("hard_data", staggered[tiny_params.hard_bins])):
            _, view = ctx.channel(edge, 0, 0).recv(cpi, ctx.abort)
            assert view.dtype == tiny_params.dtype == expected.dtype
            assert view.strides == expected.strides
            assert view.tobytes() == expected.tobytes()


def test_one_comp_observation_per_cpi(doppler_run):
    _, snapshot = doppler_run
    histograms = snapshot.to_dict()["histograms"]
    labels = {"stage": "doppler"}
    comp = histograms[series_name("rt_comp_seconds", labels)]
    pressure = histograms[series_name("rt_backpressure_seconds", labels)]
    assert comp["count"] == NUM_CPIS
    assert comp["sum"] > 0
    assert pressure["count"] == SENDS_PER_CPI * NUM_CPIS
