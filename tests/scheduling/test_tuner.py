"""Simulation-in-the-loop tuner: seeds, prescreen, refinement, resume."""

from dataclasses import replace

import pytest

from repro import STAPParams
from repro.core.assignment import Assignment
from repro.errors import AssignmentError, ConfigurationError
from repro.machine import SpeedRegion, afrl_paragon
from repro.scheduling import (
    AnalyticPipelineModel,
    TunerConfig,
    optimize_throughput,
    tune,
)
from tests.exec.counting import counting

PARAMS = STAPParams.tiny()
BUDGET = 12


def het_machine(factor=0.25, stop=4):
    return replace(
        afrl_paragon(), speed_regions=(SpeedRegion(0, stop, factor),)
    )


@pytest.fixture(scope="module")
def sim_result():
    """One shared simulated tune on the tiny heterogeneous machine."""
    return tune(
        PARAMS,
        BUDGET,
        machine=het_machine(),
        config=TunerConfig(num_cpis=8, sim_candidates=6, sim_rounds=2),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TunerConfig(objective="goodput")
        with pytest.raises(ConfigurationError):
            TunerConfig(num_cpis=5)  # below the steady-state minimum
        with pytest.raises(ConfigurationError):
            TunerConfig(sim_candidates=-1)
        # Analytic-only tuning has no steady-state constraint.
        TunerConfig(num_cpis=2, sim_candidates=0)

    def test_budget_validation(self):
        with pytest.raises(AssignmentError):
            tune(PARAMS, 6)
        with pytest.raises(AssignmentError):
            tune(
                PARAMS,
                BUDGET,
                seeds=[Assignment(8, 4, 28, 4, 7, 4, 4, name="too big")],
                config=TunerConfig(sim_candidates=0),
            )


class TestAnalyticOnly:
    def test_prescreen_path_runs_no_simulations(self):
        with counting() as delta:
            result = tune(
                PARAMS,
                BUDGET,
                machine=het_machine(),
                config=TunerConfig(sim_candidates=0),
            )
        assert delta["simulations_run"] == 0
        assert result.analytic_only
        assert result.points_simulated == 0
        assert result.front.num_cpis == 0
        assert all(p.source == "analytic" for p in result.front.points)

    def test_beats_equations_pick_on_heterogeneous_machine(self):
        machine = het_machine()
        result = tune(
            PARAMS, BUDGET, machine=machine, config=TunerConfig(sim_candidates=0)
        )
        model = AnalyticPipelineModel(PARAMS, machine)
        baseline = model.predicted_throughput(
            optimize_throughput(model, BUDGET)
        )
        assert result.best_throughput.throughput >= baseline * 1.10
        assert result.throughput_gain >= 1.10

    def test_front_is_within_budget_and_feasible(self):
        result = tune(
            PARAMS, BUDGET, machine=het_machine(), config=TunerConfig(sim_candidates=0)
        )
        for point in result.front.points:
            assert point.total_nodes <= BUDGET
            point.assignment().validate_for(PARAMS)

    def test_deterministic(self):
        cfg = TunerConfig(sim_candidates=0)
        a = tune(PARAMS, BUDGET, machine=het_machine(), config=cfg)
        b = tune(PARAMS, BUDGET, machine=het_machine(), config=cfg)
        assert [p.counts for p in a.front.points] == [p.counts for p in b.front.points]

    def test_homogeneous_front_contains_greedy_pick(self):
        result = tune(PARAMS, BUDGET, config=TunerConfig(sim_candidates=0))
        model = AnalyticPipelineModel(PARAMS)
        greedy = tuple(optimize_throughput(model, BUDGET).counts())
        assert result.front.covers(
            model.predicted_throughput(Assignment(*greedy)),
            model.predicted_latency(Assignment(*greedy)),
        )


class TestSimulated:
    def test_front_is_simulated_with_predictions_attached(self, sim_result):
        assert not sim_result.analytic_only
        assert sim_result.points_simulated > 0
        for point in sim_result.front.points:
            assert point.source == "simulated"
            assert point.predicted_throughput is not None

    def test_baseline_always_simulated(self, sim_result):
        assert sim_result.baseline["simulated_throughput"] is not None
        assert sim_result.baseline["simulated_latency"] is not None

    def test_beats_equations_pick_by_ten_percent(self, sim_result):
        """The acceptance bar: on a heterogeneous machine the tuner finds
        an equal-budget assignment >= 10% faster (simulated) than the
        equations-(1)-(3) pick."""
        assert sim_result.throughput_gain >= 1.10

    def test_seeds_are_simulated_and_covered(self):
        seed = Assignment(3, 1, 2, 2, 1, 1, 2, name="rider")
        result = tune(
            PARAMS,
            BUDGET,
            machine=het_machine(),
            config=TunerConfig(num_cpis=8, sim_candidates=4, sim_rounds=1),
            seeds=[seed],
        )
        # The seed was force-included in the simulation set, so the front
        # must weakly dominate it (it cannot sit ahead of the front).
        from repro.exec import SimPoint, execute_point

        outcome = execute_point(
            SimPoint(
                PARAMS,
                seed,
                machine=het_machine(),
                num_cpis=8,
                label="seed check",
            )
        )
        assert result.front.covers(
            outcome.metrics.measured_throughput,
            outcome.metrics.measured_latency,
        )

    def test_summary_mentions_baseline(self, sim_result):
        text = sim_result.summary()
        assert "baseline" in text
        assert "front of" in text

    def test_to_dict_embeds_front_and_counters(self, sim_result):
        document = sim_result.to_dict()
        assert document["extra"]["baseline"]["counts"]
        assert document["extra"]["points_simulated"] == sim_result.points_simulated
        assert document["points"]


class TestCampaignResume:
    def test_warm_store_reruns_with_zero_simulations(self, tmp_path):
        cfg = TunerConfig(num_cpis=8, sim_candidates=4, sim_rounds=2)
        machine = het_machine()
        first = tune(PARAMS, BUDGET, machine=machine, config=cfg, campaign_dir=tmp_path)
        with counting() as delta:
            second = tune(
                PARAMS, BUDGET, machine=machine, config=cfg, campaign_dir=tmp_path
            )
        assert delta["simulations_run"] == 0
        assert delta["cache_misses"] == 0
        assert [p.counts for p in first.front.points] == [
            p.counts for p in second.front.points
        ]
        assert first.best_throughput.counts == second.best_throughput.counts

    def test_changed_knob_simulates_only_new_points(self, tmp_path):
        machine = het_machine()
        tune(
            PARAMS,
            BUDGET,
            machine=machine,
            config=TunerConfig(num_cpis=8, sim_candidates=4, sim_rounds=1),
            campaign_dir=tmp_path,
        )
        with counting() as delta:
            widened = tune(
                PARAMS,
                BUDGET,
                machine=machine,
                config=TunerConfig(num_cpis=8, sim_candidates=6, sim_rounds=1),
                campaign_dir=tmp_path,
            )
        # The shared candidates come from the store; only the widening is new.
        assert 0 < delta["simulations_run"] < widened.points_simulated
