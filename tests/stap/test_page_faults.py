"""Steady-state CPIs of the sequential chain take no fresh pages.

Every per-CPI array of :class:`SequentialSTAP` — the staggered cube, the
beamformed and compressed cubes, the CFAR sums, the training blocks and
the weight solvers' systems — lives in a workspace that each branch
reuses, so once every buffer has been touched a CPI faults in no new
memory.  A chain that allocates its cubes afresh takes hundreds of minor
page faults per CPI at small scale, as glibc hands each large temporary
back to the kernel and faults it in again.  What is left is NumPy's own
LAPACK scratch (``np.linalg.qr`` copies its input), which now and then
costs one CPI a burst of faults when glibc trims its heap; the bound is
on the median CPI.  The small scale exercises the weight solvers' systems,
the paper scale the cubes.

The count is taken in a fresh interpreter, so that what earlier tests
allocated and freed in this process does not move glibc's thresholds.
Under ``taskset -c 0`` the child runs detection and then training on one
thread, whose buffers must stay apart.
"""

import json
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

#: Minor page faults the median steady-state CPI may take, per scale.  A
#: chain that allocates its per-CPI arrays fresh takes about 560 at small
#: scale and 5,900 at paper scale; one that allocates only the paper-scale
#: staggered cube fresh (33 MB, above glibc's largest mmap threshold)
#: takes about 530.
MAX_FAULTS_PER_CPI = {"small": 20, "paper": 50}
WARMUP_CPIS = 4
MEASURED_CPIS = 9

PROBE = textwrap.dedent(
    """
    import json, resource, sys
    from repro import CPIStream, SequentialSTAP, STAPParams
    from tests.core.test_golden_functional import golden_scenario

    scale, warmup, measured = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    params = getattr(STAPParams, scale)()
    cubes = CPIStream(params, golden_scenario()).take(warmup + measured)
    stap = SequentialSTAP(params)
    for cube in cubes[:warmup]:
        stap.process(cube)
    faults = []
    for cube in cubes[warmup:]:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        stap.process(cube)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(json.dumps(faults))
    """
)


def steady_state_faults(scale):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, scale, str(WARMUP_CPIS), str(MEASURED_CPIS)],
        capture_output=True, text=True, env=env, cwd=root, timeout=300,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("scale", sorted(MAX_FAULTS_PER_CPI))
def test_steady_state_cpis_take_no_fresh_pages(scale):
    faults = steady_state_faults(scale)
    assert len(faults) == MEASURED_CPIS
    assert statistics.median(faults) <= MAX_FAULTS_PER_CPI[scale], faults
