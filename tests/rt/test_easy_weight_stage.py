"""The easy weight stage sends the reference's weights, bit for bit.

The stage copies each training block out of its channel slot before it
hands the slot back.  A difference in the weights' last bits once reached
one CFAR threshold at paper scale (seed 14, CPI 16 of the ``rt-paper``
benchmark).  Running the Doppler and easy weight stage bodies in this
process (real channels, no fork) compares the weights sent for CPI 1 with
the reference's pending weights after CPI 0.
"""

import multiprocessing
import queue
import threading

import numpy as np
import pytest

from repro import CPIStream, ParallelSTAP, SequentialSTAP
from repro.rt.metrics import StageMetrics
from repro.rt.plan import StagePlan
from repro.rt.stages import RtContext, run_doppler, run_easy_weight

from tests.core.test_golden_functional import golden_scenario

pytestmark = pytest.mark.rt

NUM_CPIS = 2  # every channel has two slots: neither stage blocks


def test_easy_weights_are_the_references(tiny_params):
    stream = CPIStream(tiny_params, golden_scenario())
    runtime = ParallelSTAP(tiny_params, stream, num_cpis=NUM_CPIS,
                           plan=StagePlan.uniform(1))
    channels = runtime._build_channels(multiprocessing.get_context("fork"))
    ctx = RtContext(
        params=tiny_params, plan=runtime.plan, kernel_plan=runtime.kernel_plan,
        stream=stream, num_cpis=NUM_CPIS, azimuth_cycle=1, channels=channels,
        result_q=queue.SimpleQueue(), abort=threading.Event(), metered=False)
    try:
        run_doppler(ctx, 0, StageMetrics("doppler"))
        run_easy_weight(ctx, 0, StageMetrics("easy_weight"))
        _, sent = ctx.channel("easy_w", 0, 0).recv(1, ctx.abort)
        reference = SequentialSTAP(tiny_params, plan=runtime.kernel_plan)
        reference.process(stream.cube(0))
        expected = reference.pending_easy_weights(0)
        assert sent.shape == expected.shape
        assert np.ascontiguousarray(sent).tobytes() == expected.tobytes()
    finally:
        for channel in channels.values():
            channel.destroy()
