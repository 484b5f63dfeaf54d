"""Workspaces: kernels that write into reused buffers give the same bits.

* :class:`Workspace` hands out views of one growing buffer per name;
* every kernel that takes a ``workspace`` returns the same bytes, shape
  and dtype as its allocating call, and a second call reuses the buffer
  of the first;
* the weight computers give the same weights with a workspace, over
  several CPIs of training, and their returned weights are never a
  workspace buffer (callers keep them);
* one workspace can serve a whole chain of kernels, and the easy
  training block stays fresh.
"""

import dataclasses

import numpy as np
import pytest

from repro import CPIStream, STAPParams
from repro.stap.beamform import assemble_beamformed, beamform_easy, beamform_hard
from repro.stap.cfar import cfar_detect
from repro.stap.doppler import doppler_filter
from repro.stap.easy_weights import EasyWeightComputer, extract_easy_training
from repro.stap.hard_weights import HardWeightComputer, extract_hard_training
from repro.stap.plan import default_plan
from repro.stap.pulse_compression import pulse_compress
from repro.stap.workspace import Workspace, scratch

from tests.core.test_golden_functional import golden_scenario


def same_bytes(a, b):
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestWorkspace:
    def test_a_name_reuses_its_buffer(self):
        ws = Workspace()
        first = ws.array("a", (4, 8), complex)
        again = ws.array("a", (4, 8), complex)
        assert np.shares_memory(first, again)
        assert again.flags.c_contiguous and again.shape == (4, 8)

    def test_smaller_requests_view_the_buffer_and_larger_ones_grow_it(self):
        ws = Workspace()
        big = ws.array("a", (10, 10), np.float64)
        small = ws.array("a", (3, 5), np.complex128)
        assert np.shares_memory(big, small) and small.shape == (3, 5)
        grown = ws.array("a", (20, 10), np.float64)
        assert not np.shares_memory(big, grown)
        assert np.shares_memory(grown, ws.array("a", (10, 10), np.float64))

    def test_names_are_separate_buffers(self):
        ws = Workspace()
        assert not np.shares_memory(ws.array("a", (8,), float),
                                    ws.array("b", (8,), float))

    def test_empty_arrays(self):
        assert Workspace().array("a", (0, 5), complex).shape == (0, 5)

    def test_without_a_workspace_every_array_is_fresh(self):
        a = scratch(None, "a", (3, 3), float)
        b = scratch(None, "a", (3, 3), float)
        assert not np.shares_memory(a, b)


@pytest.fixture(scope="module")
def chain():
    """Small-scale kernel inputs: a staggered cube and trained weights."""
    params = STAPParams.small()
    plan = default_plan(params)
    cubes = CPIStream(params, golden_scenario()).take(4)
    staggered = doppler_filter(cubes[-1], window=plan.doppler_window)
    easy, hard = EasyWeightComputer(plan), HardWeightComputer(plan)
    for cube in cubes[:3]:
        stag = doppler_filter(cube, window=plan.doppler_window)
        easy.push_training(extract_easy_training(stag, params))
        hard.update(extract_hard_training(stag, params))
    return params, plan, cubes, staggered, easy.compute_weights(), hard.compute_weights()


def kernel_calls(chain):
    params, plan, cubes, staggered, easy_w, hard_w = chain
    J = params.num_channels
    easy_in = staggered[params.easy_bins, :J, :]
    hard_in = staggered[params.hard_bins]
    easy_y = beamform_easy(easy_in, easy_w, params)
    hard_y = beamform_hard(hard_in, hard_w, params)
    beams = assemble_beamformed(easy_y, hard_y, params)
    return {
        "doppler": lambda ws: doppler_filter(
            cubes[0], window=plan.doppler_window, workspace=ws),
        "beamform_easy": lambda ws: beamform_easy(easy_in, easy_w, params, ws),
        "beamform_hard": lambda ws: beamform_hard(hard_in, hard_w, params, ws),
        "assemble": lambda ws: assemble_beamformed(easy_y, hard_y, params, ws),
        "pulse_compress": lambda ws: pulse_compress(
            beams, params, plan.replica_freq, ws),
        "extract_hard_training": lambda ws: extract_hard_training(
            staggered, params, ws),
    }


KERNELS = ("doppler", "beamform_easy", "beamform_hard", "assemble",
           "pulse_compress", "extract_hard_training")


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_output_is_the_allocating_calls_and_reuses_its_buffer(chain, name):
    call = kernel_calls(chain)[name]
    fresh = call(None)
    ws = Workspace()
    first = call(ws)
    assert same_bytes(first, fresh)
    second = call(ws)
    assert np.shares_memory(first, second)
    assert same_bytes(second, fresh)


def test_cfar_with_a_workspace_finds_the_same_detections(chain):
    params, plan, *_ = chain
    rng = np.random.default_rng(5)
    power = rng.exponential(size=(params.num_doppler, params.num_beams,
                                  params.num_ranges)).astype(np.float32)
    power[3, 1, 40] = 500.0
    fresh = cfar_detect(power, params, factor=plan.cfar_factor)
    ws = Workspace()
    for _ in range(2):
        got = cfar_detect(power, params, factor=plan.cfar_factor, workspace=ws)
        assert [repr(d) for d in got] == [repr(d) for d in fresh]
    assert fresh


def test_hard_training_pad_rows_are_zero_in_a_reused_buffer():
    # The first segment is shorter than the training rows.
    params = dataclasses.replace(STAPParams.tiny(),
                                 range_segment_boundaries=(0, 6, 48))
    assert params.range_segment_boundaries[1] < params.hard_train_samples
    rng = np.random.default_rng(2)
    shape = (params.num_doppler, params.num_staggered_channels, params.num_ranges)
    staggered = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ws = Workspace()
    ws.array("hard_weights.training", (params.num_segments, params.num_hard_doppler,
                                       params.hard_train_samples,
                                       params.num_staggered_channels),
             complex).fill(np.nan)
    got = extract_hard_training(staggered, params, ws)
    assert same_bytes(got, extract_hard_training(staggered, params))


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_weight_computers_with_a_workspace_give_the_same_weights(scale):
    params = getattr(STAPParams, scale)()
    plan = default_plan(params)
    ws = Workspace()
    easy, easy_ws = EasyWeightComputer(plan), EasyWeightComputer(plan, workspace=ws)
    hard, hard_ws = HardWeightComputer(plan), HardWeightComputer(plan, workspace=ws)
    kept = []
    for cube in CPIStream(params, golden_scenario()).take(5):
        staggered = doppler_filter(cube)
        training = extract_easy_training(staggered, params)
        easy.push_training(training)
        easy_ws.push_training(training)
        rows = extract_hard_training(staggered, params)
        hard.update(rows)
        hard_ws.update(rows)
        for plain, reused in ((easy.compute_weights(), easy_ws.compute_weights()),
                              (hard.compute_weights(), hard_ws.compute_weights())):
            assert same_bytes(reused, plain)
            kept.append(reused)
    for weights in kept:
        assert not any(np.shares_memory(weights, buffer)
                       for buffer in ws._buffers.values())


def test_easy_training_blocks_stay_fresh(chain):
    params, _, _, staggered, *_ = chain
    first = extract_easy_training(staggered, params)
    second = extract_easy_training(staggered, params)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, staggered)
