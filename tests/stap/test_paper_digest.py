"""Bit identity of the sequential chain at the paper's shapes.

The golden detections cover the tiny and small scales only.  Memory-layout
effects — which axis a reduction walks first, which order a gather writes
in — show up only at the paper's shapes, so this test pins one SHA-256
digest over four paper-scale CPIs of a fixed seed: every detection (cell
and the bytes of its power and threshold) and, after each CPI, the
pending easy and hard weights it leaves for the next visit.

The digest was taken from the chain whose kernels allocated every
per-CPI array fresh; a kernel that writes into reused buffers must
reproduce it bit for bit, on any thread budget.
"""

import hashlib

import numpy as np
import pytest

from repro import CPIStream, SequentialSTAP, STAPParams
from tests.core.test_golden_functional import golden_scenario
from tests.stap.test_kernel_threads import split_into

NUM_CPIS = 4

DIGEST = "e784de0aa0783d995df501a59fd17b8c63964663092bb3db61da0e29faa44e0d"


def chain_digest(params: STAPParams) -> str:
    """SHA-256 over detections and pending weights of ``NUM_CPIS`` CPIs."""
    stap = SequentialSTAP(params)
    sha = hashlib.sha256()
    for cube in CPIStream(params, golden_scenario()).take(NUM_CPIS):
        report = stap.process(cube)
        for det in report.detections:
            sha.update(np.array([det.doppler_bin, det.beam, det.range_cell],
                                dtype=np.int64).tobytes())
            sha.update(np.array([det.power, det.threshold]).tobytes())
        for weights in (stap.pending_easy_weights(cube.azimuth),
                        stap.pending_hard_weights(cube.azimuth)):
            sha.update(np.ascontiguousarray(weights).tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def paper():
    return STAPParams.paper()


def test_paper_scale_chain_matches_pinned_digest(paper):
    assert chain_digest(paper) == DIGEST


def test_paper_scale_chain_matches_on_one_thread(paper):
    """One thread runs detection, then training, on the same thread."""
    with split_into(1):
        assert chain_digest(paper) == DIGEST
