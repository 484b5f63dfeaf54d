"""Kill a campaign mid-run, resume from its directory, verify byte-identity.

The acceptance test for the durable store: a campaign process is killed
hard (``os._exit``) partway through, a second process resumes against the
same directory, and the merged results must be byte-identical to an
uninterrupted serial run — with the already-published points served from
the store (zero recomputation, asserted on the metrics registry).
"""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro import Assignment, STAPParams
from repro.exec import Campaign, CampaignStore, SimPoint, load_campaign, run_points
from tests.exec.counting import counting

pytestmark = pytest.mark.exec

TINY_COUNTS = (2, 1, 2, 1, 1, 1, 1)
NUM_POINTS = 4
KILL_AFTER = 2

#: Stand-alone campaign runner that dies hard after KILL_AFTER points —
#: ``os._exit`` skips interpreter teardown, so nothing is flushed or
#: finalized beyond what the store already published atomically.
_KILLED_RUNNER = textwrap.dedent(
    """
    import os, sys
    from repro.exec import Campaign, CampaignStore
    from test_resume import campaign_points, KILL_AFTER  # via PYTHONPATH

    store = CampaignStore(sys.argv[1], name="killme")

    def die_after(completed, total, outcome):
        if completed >= KILL_AFTER:
            os._exit(137)

    Campaign(campaign_points(), store=store).run(progress=die_after)
    os._exit(0)  # unreachable when the kill fires
    """
)


def campaign_points():
    return [
        SimPoint(
            STAPParams.tiny(),
            Assignment(*TINY_COUNTS, name=f"kill{i}"),
            num_cpis=3 + i,
        )
        for i in range(NUM_POINTS)
    ]


def test_killed_campaign_resumes_byte_identical(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), os.path.dirname(__file__),
                      env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_RUNNER, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 137, proc.stderr

    # The store already knows the full campaign and the partial results.
    progress = CampaignStore(tmp_path).progress(load_results=False)
    assert progress.total == NUM_POINTS
    assert KILL_AFTER <= progress.complete < NUM_POINTS

    # Resume in this process; published points must come from disk.
    resumed = load_campaign(tmp_path)
    assert resumed.points == campaign_points()
    with counting() as delta:
        outcomes = resumed.run()
    assert delta["simulations_run"] == NUM_POINTS - progress.complete
    assert delta["cache_hits_disk"] == progress.complete
    assert all(o.ok for o in outcomes)

    # Byte-identical to an uninterrupted, uncached serial run.
    reference = run_points(campaign_points(), cache=None)
    assert [pickle.dumps(o.result.metrics) for o in outcomes] == [
        pickle.dumps(o.result.metrics) for o in reference
    ]

    # A second resume performs zero work at all.
    with counting() as delta:
        again = load_campaign(tmp_path).run()
    assert delta["simulations_run"] == 0
    assert all(o.cached for o in again)
