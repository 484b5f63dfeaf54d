"""StagePlan: replication scaling and deterministic routing.

These are pure-Python properties (no worker processes): the plan is the
contract producers and consumers rely on *without communicating*, so the
partition/ownership laws here are what make the runtime deadlock-free.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import TASK_NAMES, CASE1, CASE2, Assignment
from repro.errors import ConfigurationError
from repro.rt.plan import WEIGHT_STAGES, StagePlan, edge_specs

pytestmark = pytest.mark.rt


# -- construction ----------------------------------------------------------------
def test_counts_must_cover_every_stage():
    with pytest.raises(ConfigurationError):
        StagePlan((1, 1, 1))


def test_every_stage_needs_a_worker():
    counts = [1] * len(TASK_NAMES)
    counts[2] = 0
    with pytest.raises(ConfigurationError):
        StagePlan(tuple(counts))


def test_uniform_caps_weight_stages_at_cycle():
    plan = StagePlan.uniform(replicas=3, azimuth_cycle=2)
    for stage in TASK_NAMES:
        expected = 2 if stage in WEIGHT_STAGES else 3
        assert plan.of(stage) == expected


def test_from_assignment_keeps_the_paper_shape():
    # Case 1 gives hard weights the lion's share (192 of 236 nodes);
    # a scaled plan must keep that dominance.
    plan = StagePlan.from_assignment(CASE1, workers=16, azimuth_cycle=16)
    assert plan.total_workers == 16
    assert plan.of("hard_weight") == max(plan.as_dict().values())
    assert all(count >= 1 for count in plan.counts)


def test_from_assignment_meets_exact_budget_when_feasible():
    for workers in (7, 9, 12, 20):
        plan = StagePlan.from_assignment(CASE2, workers=workers,
                                         azimuth_cycle=workers)
        assert plan.total_workers == workers


def test_from_assignment_floors_tiny_budgets_to_one_per_stage():
    plan = StagePlan.from_assignment(CASE1, workers=3)
    assert plan.total_workers == len(TASK_NAMES)
    assert set(plan.counts) == {1}


def test_weight_replication_never_exceeds_azimuth_cycle():
    plan = StagePlan.from_assignment(CASE1, workers=64, azimuth_cycle=2)
    for stage in WEIGHT_STAGES:
        assert plan.of(stage) <= 2


# -- routing ---------------------------------------------------------------------
@given(
    workers=st.integers(min_value=7, max_value=40),
    azimuth_cycle=st.integers(min_value=1, max_value=6),
    num_cpis=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_stage_cpis_partition_the_stream(workers, azimuth_cycle, num_cpis):
    """Every CPI is owned by exactly one replica of every stage."""
    plan = StagePlan.from_assignment(CASE1, workers=workers,
                                     azimuth_cycle=azimuth_cycle)
    for stage in TASK_NAMES:
        quotas = [
            plan.stage_cpis(stage, r, num_cpis, azimuth_cycle)
            for r in range(plan.of(stage))
        ]
        flat = sorted(i for quota in quotas for i in quota)
        assert flat == list(range(num_cpis))
        for quota in quotas:
            assert quota == sorted(quota)  # strictly increasing order


@given(
    cpi=st.integers(min_value=0, max_value=500),
    azimuth_cycle=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_weight_owner_is_a_function_of_azimuth(cpi, azimuth_cycle):
    """Weight state is keyed per azimuth: all visits to an azimuth land on
    the same replica, so the recursion history never splits."""
    plan = StagePlan.from_assignment(CASE1, workers=12,
                                     azimuth_cycle=azimuth_cycle)
    for stage in WEIGHT_STAGES:
        owner = plan.owner_of(stage, cpi, azimuth_cycle)
        revisit = plan.owner_of(stage, cpi + azimuth_cycle, azimuth_cycle)
        assert owner == revisit


def test_edge_specs_cover_every_edge(tiny_params):
    from repro.rt.plan import EDGES

    specs = edge_specs(tiny_params)
    assert set(specs) == set(EDGES)
    for edge, (shape, dtype) in specs.items():
        assert all(dim > 0 for dim in shape), (edge, shape)


def test_edge_dtypes_match_the_serial_chain(tiny_params):
    """The staggered cube travels in the cube's dtype (complex64 for the
    default configuration), the weights in complex128; power is the
    params' real dtype (float32 for the default configuration)."""
    import numpy as np

    specs = edge_specs(tiny_params)
    assert specs["easy_data"][1] == np.dtype(tiny_params.dtype) == np.complex64
    assert specs["hard_data"][1] == np.dtype(tiny_params.dtype)
    assert specs["easy_w"][1] == np.dtype(np.complex128)
    assert specs["power"][1] == np.dtype(tiny_params.real_dtype)
