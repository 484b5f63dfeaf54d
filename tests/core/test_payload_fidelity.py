"""Functional payloads weigh what the model charges for them.

The modeled pipeline charges every message the bytes of its edge plan
(``EdgePlan.sends_of``), at the params' complex itemsize: 8 bytes per
sample for the paper's single-precision cubes.  The functional pipeline
sends real arrays over the same plans.  The staggered cube (the four
Doppler edges, Figure 8's all-to-all among them) travels in the cube's
own dtype, and the compressed power in the params' real dtype, so each
of those payloads is exactly its modeled size.

The weights and the beams (``easy_weight_to_bf``, ``hard_weight_to_bf``,
``easy_bf_to_pc``, ``hard_bf_to_pc``) are computed and sent in double
precision, twice the modeled bytes; rounding them would change the
detections, so they are not checked here.
"""

import collections

import numpy as np
import pytest

from repro import Assignment, CPIStream, RadarScenario, STAPParams, STAPPipeline
from repro.core import tasks
from repro.mpi.datatypes import payload_nbytes
from repro.rt.plan import edge_specs
from repro.stap.doppler import doppler_filter
from repro.stap.plan import KernelPlan
from repro.stap.reference import default_steering

#: Edges whose payloads carry the cube's precision.
CUBE_PRECISION_EDGES = (
    "dop_to_easy_weight",
    "dop_to_hard_weight",
    "dop_to_easy_bf",
    "dop_to_hard_bf",
    "pc_to_cfar",
)
STAGGERED_EDGES = ("dop_to_easy_bf", "dop_to_hard_bf")


@pytest.fixture(scope="module")
def params():
    return STAPParams.small()


@pytest.fixture(scope="module")
def sent(params):
    """Edge -> [(payload, modeled message)] of a functional run."""
    seen = collections.defaultdict(list)
    with pytest.MonkeyPatch.context() as patch:
        for cls in tasks.TASK_CLASSES.values():
            def recording(self, cpi, received, inner=cls.compute):
                sends = inner(self, cpi, received)
                for edge, messages in sends:
                    seen[edge] += [(payload, message) for message, payload in messages]
                return sends

            patch.setattr(cls, "compute", recording)
        STAPPipeline(
            params,
            Assignment(2, 2, 3, 2, 2, 2, 2, name="fidelity"),
            mode="functional",
            stream=CPIStream(params, RadarScenario.benign(3)),
            num_cpis=3,
        ).run()
    return seen


@pytest.mark.parametrize("edge", CUBE_PRECISION_EDGES)
def test_payload_bytes_equal_the_modeled_bytes(sent, edge):
    assert sent[edge]
    for payload, message in sent[edge]:
        assert payload_nbytes(payload) == message.nbytes, (message.src, message.dst)


def test_staggered_cube_is_the_cube_dtype_on_every_path(params, sent):
    cube = CPIStream(params, RadarScenario.benign(3)).cube(0)
    plan = KernelPlan.build(params, default_steering(params))
    assert doppler_filter(cube, window=plan.doppler_window).dtype == params.dtype
    for edge in STAGGERED_EDGES:
        assert {payload.dtype for payload, _ in sent[edge]} == {np.dtype(params.dtype)}
    specs = edge_specs(params)
    assert specs["easy_data"][1] == specs["hard_data"][1] == params.dtype
