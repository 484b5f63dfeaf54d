"""Simulation-in-the-loop Pareto auto-tuner for processor assignment.

The paper assigns processors with the closed-form equations (1)-(3); those
ignore pipeline fill, receive-side idling, link contention — and any
heterogeneity in the machine.  This module searches assignments against
the *full machine model* instead, using the analytic model only as a
cheap prescreen:

1. **Seed** with the equations' own picks (greedy throughput, greedy
   latency at several throughput floors), a heterogeneity-aware greedy,
   and any caller-provided assignments (the paper's Table 7 cases).
2. **Expand** a neighborhood around the analytic frontier — every
   single-node donor→recipient :class:`Move`
   plus single-node growth while under budget — scoring each candidate
   with the heterogeneity-aware analytic predictions and pruning
   dominated points.  This loop touches thousands of assignments per
   second and never simulates.
3. **Refine** the surviving candidates with real simulator runs fanned
   out through :mod:`repro.exec` — parallel (``jobs``), content-cached,
   and, with ``campaign_dir``, a durable resumable campaign: re-running
   the same tune against a warm store performs **zero** new simulations,
   and a changed knob re-simulates only the candidates it changed.
   A second simulation round expands around the measured winners, so the
   search can exploit effects only the simulator sees.

Everything is deterministic — no randomness anywhere — which is what
makes warm-store reruns exact cache walks.

The output is a :class:`~repro.scheduling.pareto.ParetoFront` (versioned
JSON artifact) plus a baseline comparison against the equations-(1)-(3)
pick, wrapped in :class:`TuneResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.assignment import Assignment, TASK_NAMES
from repro.errors import AssignmentError, ConfigurationError
from repro.machine import Machine, afrl_paragon
from repro.radar.parameters import STAPParams
from repro.scheduling.model import AnalyticPipelineModel
from repro.scheduling.optimizer import _limits, optimize_latency, optimize_throughput
from repro.scheduling.pareto import ParetoFront, ParetoPoint, pareto_front

#: Tuning objectives.
OBJECTIVES = ("throughput", "latency", "pareto")

#: Fewest CPIs with a >= 2-report steady-state window (warm-up/cool-down
#: excluded); below this the measured throughput is NaN.
MIN_SIM_CPIS = 8

#: Throughput floors (fractions of the greedy-throughput optimum) at
#: which latency-objective seeds are generated.
_SEED_FLOORS = (0.5, 0.8, 0.95)


@dataclass(frozen=True)
class Move:
    """One neighborhood step: move a single node between tasks."""

    from_task: str
    to_task: str

    def __str__(self) -> str:
        return f"{self.from_task} -> {self.to_task}"


@dataclass(frozen=True)
class TunerConfig:
    """Search knobs; the defaults suit paper-scale budgets."""

    objective: str = "pareto"
    #: CPIs per refinement simulation (>= :data:`MIN_SIM_CPIS`).
    num_cpis: int = 15
    #: Candidates simulated per refinement round; 0 = analytic-prescreen
    #: only (no simulations at all — the CI smoke path).
    sim_candidates: int = 12
    #: Refinement rounds: round 1 simulates the analytic survivors, later
    #: rounds expand around the measured winners.
    sim_rounds: int = 2
    #: Analytic hill-climb rounds (backstop; the climb usually converges
    #: far earlier).
    max_rounds: int = 64
    #: Cap on analytically evaluated candidates per tune.
    max_candidates: int = 20000
    #: Optional throughput floor applied to the latency pick.
    min_throughput: Optional[float] = None
    #: Worker processes for the simulation fan-out.
    jobs: int = 1
    #: Simulator backend for refinement runs.
    backend: Optional[str] = None
    contention: str = "endpoint"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown tuning objective {self.objective!r}; "
                f"expected one of {OBJECTIVES}"
            )
        if self.sim_candidates > 0 and self.num_cpis < MIN_SIM_CPIS:
            raise ConfigurationError(
                f"num_cpis={self.num_cpis} leaves no steady-state window; "
                f"refinement simulations need >= {MIN_SIM_CPIS} CPIs"
            )
        if self.sim_candidates < 0 or self.sim_rounds < 1 or self.jobs < 1:
            raise ConfigurationError(
                "sim_candidates must be >= 0, sim_rounds and jobs >= 1"
            )


@dataclass
class TuneResult:
    """A finished tune: the front, the picks, and the baseline comparison."""

    front: ParetoFront
    best_throughput: ParetoPoint
    best_latency: ParetoPoint
    #: The equations-(1)-(3) pick and its predicted/simulated coordinates.
    baseline: dict
    #: Distinct assignments evaluated analytically.
    candidates_evaluated: int
    #: Distinct assignments refined with the simulator (0 = analytic only).
    points_simulated: int
    analytic_only: bool = False
    config: Optional[TunerConfig] = None

    @property
    def throughput_gain(self) -> float:
        """Tuned best throughput over the baseline pick's, same source."""
        key = "predicted_throughput" if self.analytic_only else "simulated_throughput"
        base = self.baseline.get(key)
        if not base:
            return float("nan")
        return self.best_throughput.throughput / base

    def summary(self) -> str:
        source = "analytic predictions" if self.analytic_only else "simulated"
        lines = [
            f"=== tune: budget {self.front.budget}, objective "
            f"{self.front.objective}, {self.front.machine or 'default machine'} ===",
            f"{self.candidates_evaluated} candidates prescreened, "
            f"{self.points_simulated} simulated; front of {len(self.front)} "
            f"({source})",
            f"{'throughput':>12} {'latency':>10}  assignment",
        ]
        for point in self.front.points:
            marker = ""
            if tuple(self.baseline["counts"]) == point.counts:
                marker = "  <- equations (1)-(3) pick"
            lines.append(
                f"{point.throughput:>12.4f} {point.latency:>10.4f}  "
                f"{point.counts}{marker}"
            )
        base_thr = self.baseline.get(
            "predicted_throughput" if self.analytic_only else "simulated_throughput"
        )
        if base_thr:
            lines.append(
                f"baseline {tuple(self.baseline['counts'])}: "
                f"throughput {base_thr:.4f} -> tuned "
                f"{self.best_throughput.throughput:.4f} "
                f"({self.throughput_gain:.2f}x)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        document = self.front.to_dict()
        document["extra"] = dict(document["extra"])
        document["extra"].update(
            {
                "baseline": self.baseline,
                "best_throughput": list(self.best_throughput.counts),
                "best_latency": list(self.best_latency.counts),
                "candidates_evaluated": self.candidates_evaluated,
                "points_simulated": self.points_simulated,
                "analytic_only": self.analytic_only,
            }
        )
        return document


# -- candidate generation --------------------------------------------------------------
def _counts_of(assignment: Assignment) -> tuple[int, ...]:
    return tuple(assignment.counts())

def _neighbor_moves(counts: tuple[int, ...], limits: Sequence[int]) -> list[Move]:
    """Every single-node donor -> recipient move legal from ``counts``."""
    moves = []
    for i, donor in enumerate(TASK_NAMES):
        if counts[i] <= 1:
            continue
        for j, recipient in enumerate(TASK_NAMES):
            if i != j and counts[j] < limits[j]:
                moves.append(Move(donor, recipient))
    return moves


def _apply_move(counts: tuple[int, ...], move: Move) -> tuple[int, ...]:
    out = list(counts)
    out[TASK_NAMES.index(move.from_task)] -= 1
    out[TASK_NAMES.index(move.to_task)] += 1
    return tuple(out)


def _neighbors(
    counts: tuple[int, ...], budget: int, limits: Sequence[int]
) -> list[tuple[int, ...]]:
    """Single-move reallocations plus single-node growth under budget."""
    result = [_apply_move(counts, move) for move in _neighbor_moves(counts, limits)]
    if sum(counts) < budget:
        for i in range(len(TASK_NAMES)):
            if counts[i] < limits[i]:
                grown = list(counts)
                grown[i] += 1
                result.append(tuple(grown))
    return result


def _greedy_predicted(
    model: AnalyticPipelineModel, budget: int, limits: Dict[str, int]
) -> tuple[int, ...]:
    """Bottleneck-first greedy on the heterogeneity-aware predictions.

    Unlike the homogeneous greedy this is only a heuristic (a task's
    speed factor shifts with every offset change), but it lands close
    enough to seed the neighborhood search well.
    """
    counts = {task: 1 for task in TASK_NAMES}
    remaining = budget - len(TASK_NAMES)
    while remaining > 0:
        assignment = Assignment(name="het-greedy", **counts)
        times = model.hetero_task_times(assignment)
        candidates = [t for t in TASK_NAMES if counts[t] < limits[t]]
        if not candidates:
            break
        counts[max(candidates, key=lambda t: times[t])] += 1
        remaining -= 1
    return tuple(counts[task] for task in TASK_NAMES)


# -- the tuner -------------------------------------------------------------------------
class _Prescreen:
    """Deterministic analytic search state: counts -> (throughput, latency)."""

    def __init__(self, model: AnalyticPipelineModel, budget: int,
                 limits: Dict[str, int], config: TunerConfig):
        self.model = model
        self.budget = budget
        self.limit_list = [limits[task] for task in TASK_NAMES]
        self.config = config
        self.evals: Dict[tuple[int, ...], tuple[float, float]] = {}
        self.truncated = False

    def evaluate(self, counts: tuple[int, ...]) -> tuple[float, float]:
        known = self.evals.get(counts)
        if known is not None:
            return known
        assignment = Assignment(*counts, name="candidate")
        value = (
            self.model.predicted_throughput(assignment),
            self.model.predicted_latency(assignment),
        )
        self.evals[counts] = value
        return value

    def frontier(self, k: int = 8) -> list[tuple[int, ...]]:
        """Non-dominated counts plus the top-``k`` per scalar objective."""
        by_throughput = sorted(
            self.evals, key=lambda c: (-self.evals[c][0], self.evals[c][1], c)
        )
        by_latency = sorted(
            self.evals, key=lambda c: (self.evals[c][1], -self.evals[c][0], c)
        )
        front = pareto_front(
            ParetoPoint(counts=c, throughput=t, latency=l)
            for c, (t, l) in self.evals.items()
        )
        chosen: dict[tuple[int, ...], None] = {}
        for counts in (
            [p.counts for p in front] + by_throughput[:k] + by_latency[:k]
        ):
            chosen.setdefault(counts)
        return list(chosen)

    def climb(self) -> None:
        """Expand neighborhoods around the frontier until it stops moving."""
        seen = set(self.evals)
        for _ in range(self.config.max_rounds):
            fresh: list[tuple[int, ...]] = []
            for counts in self.frontier():
                for neighbor in _neighbors(counts, self.budget, self.limit_list):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        fresh.append(neighbor)
            if not fresh:
                return
            for counts in fresh:
                if len(self.evals) >= self.config.max_candidates:
                    self.truncated = True
                    return
                self.evaluate(counts)

    def select(self, k: int, objective: str) -> list[tuple[int, ...]]:
        """The ``k`` counts worth simulating, deterministic order.

        Front points first (they are the candidate answer set), then the
        best scalar performers: all of them for a scalar objective,
        alternating throughput/latency ranks for ``pareto``.
        """
        front = pareto_front(
            ParetoPoint(counts=c, throughput=t, latency=l)
            for c, (t, l) in self.evals.items()
        )
        by_throughput = sorted(
            self.evals, key=lambda c: (-self.evals[c][0], self.evals[c][1], c)
        )
        by_latency = sorted(
            self.evals, key=lambda c: (self.evals[c][1], -self.evals[c][0], c)
        )
        if objective == "throughput":
            ranked = by_throughput
        elif objective == "latency":
            ranked = by_latency
        else:
            ranked = [
                counts
                for pair in zip(by_throughput, by_latency)
                for counts in pair
            ]
        chosen: dict[tuple[int, ...], None] = {}
        for counts in [p.counts for p in front] + ranked:
            chosen.setdefault(counts)
            if len(chosen) >= k:
                break
        return list(chosen)[:k]


def tune(
    params: STAPParams,
    budget: int,
    machine: Optional[Machine] = None,
    config: Optional[TunerConfig] = None,
    seeds: Sequence[Assignment] = (),
    campaign_dir=None,
    campaign_name: Optional[str] = None,
    progress=None,
) -> TuneResult:
    """Search processor assignments for ``budget`` nodes on ``machine``.

    ``seeds`` are extra starting assignments (e.g. the paper's Table 7
    case for the budget); every seed and the equations-(1)-(3) baseline
    are always carried into the simulation set, so the result can state
    exactly where they sit relative to the front.  ``campaign_dir`` roots
    the refinement simulations in a durable
    :class:`~repro.exec.campaign.CampaignStore`; ``progress`` receives
    executor progress callbacks (e.g. a
    :class:`~repro.obs.dashboard.SweepDashboard`).
    """
    config = config or TunerConfig()
    resolved = machine or afrl_paragon()
    if budget < len(TASK_NAMES):
        raise AssignmentError(
            f"budget {budget} below the minimum of one node per task "
            f"({len(TASK_NAMES)})"
        )
    resolved.check_node_budget(budget)
    model = AnalyticPipelineModel(params, resolved)
    limits = _limits(params)

    # -- seeds -----------------------------------------------------------------
    baseline_assignment = optimize_throughput(model, budget, name="equations-(1)-(3)")
    baseline_counts = _counts_of(baseline_assignment)
    seed_counts: dict[tuple[int, ...], None] = {baseline_counts: None}
    baseline_throughput = model.throughput(baseline_assignment)
    for floor in _SEED_FLOORS:
        try:
            pick = optimize_latency(
                model, budget, min_throughput=floor * baseline_throughput
            )
        except AssignmentError:
            continue
        seed_counts.setdefault(_counts_of(pick))
    seed_counts.setdefault(_counts_of(optimize_latency(model, budget)))
    seed_counts.setdefault(_greedy_predicted(model, budget, limits))
    pinned: dict[tuple[int, ...], None] = {baseline_counts: None}
    for seed in seeds:
        seed.validate_for(params)
        if seed.total_nodes > budget:
            raise AssignmentError(
                f"seed {seed.name or seed.counts()} uses {seed.total_nodes} "
                f"nodes, over the budget of {budget}"
            )
        seed_counts.setdefault(_counts_of(seed))
        pinned.setdefault(_counts_of(seed))

    # -- analytic prescreen ------------------------------------------------------
    prescreen = _Prescreen(model, budget, limits, config)
    for counts in seed_counts:
        prescreen.evaluate(counts)
    prescreen.climb()

    # -- simulation refinement -----------------------------------------------------
    simulated: Dict[tuple[int, ...], tuple[float, float]] = {}
    if config.sim_candidates > 0:
        runner = _SimulationRunner(
            params, resolved if machine is not None else None, config,
            campaign_dir, campaign_name, progress,
        )
        batch = list(pinned)
        for counts in prescreen.select(config.sim_candidates, config.objective):
            if counts not in pinned:
                batch.append(counts)
        simulated.update(runner.run(batch))
        for _ in range(config.sim_rounds - 1):
            batch = _next_round(prescreen, simulated, config)
            if not batch:
                break
            simulated.update(runner.run(batch))

    # -- assemble ------------------------------------------------------------------
    if simulated:
        points = [
            ParetoPoint(
                counts=counts,
                throughput=thr,
                latency=lat,
                source="simulated",
                predicted_throughput=prescreen.evaluate(counts)[0],
                predicted_latency=prescreen.evaluate(counts)[1],
            )
            for counts, (thr, lat) in simulated.items()
        ]
    else:
        points = [
            ParetoPoint(counts=counts, throughput=thr, latency=lat)
            for counts, (thr, lat) in prescreen.evals.items()
        ]
    front = ParetoFront.build(
        points,
        budget=budget,
        objective=config.objective,
        machine=resolved.name,
        num_cpis=config.num_cpis if simulated else 0,
        extra={"truncated": prescreen.truncated},
    )
    baseline = {
        "counts": list(baseline_counts),
        "name": baseline_assignment.name,
        "predicted_throughput": prescreen.evaluate(baseline_counts)[0],
        "predicted_latency": prescreen.evaluate(baseline_counts)[1],
        "equation_throughput": baseline_throughput,
        "equation_latency": model.latency(baseline_assignment),
        "simulated_throughput": simulated.get(baseline_counts, (None, None))[0],
        "simulated_latency": simulated.get(baseline_counts, (None, None))[1],
    }
    return TuneResult(
        front=front,
        best_throughput=front.best_throughput(),
        best_latency=front.best_latency(config.min_throughput),
        baseline=baseline,
        candidates_evaluated=len(prescreen.evals),
        points_simulated=len(simulated),
        analytic_only=not simulated,
        config=config,
    )


def _next_round(
    prescreen: _Prescreen,
    simulated: Dict[tuple[int, ...], tuple[float, float]],
    config: TunerConfig,
) -> list[tuple[int, ...]]:
    """Unsimulated neighbors of the measured winners, best-predicted first."""
    winners = pareto_front(
        ParetoPoint(counts=c, throughput=t, latency=l)
        for c, (t, l) in simulated.items()
    )
    candidates: dict[tuple[int, ...], None] = {}
    for point in winners:
        for neighbor in _neighbors(
            point.counts, prescreen.budget, prescreen.limit_list
        ):
            if neighbor not in simulated:
                candidates.setdefault(neighbor)
    for counts in candidates:
        prescreen.evaluate(counts)
    ranked = sorted(
        candidates,
        key=lambda c: (-prescreen.evals[c][0], prescreen.evals[c][1], c),
    )
    return ranked[: config.sim_candidates]


class _SimulationRunner:
    """Fans candidate batches through the executor/campaign layer."""

    def __init__(self, params, machine, config, campaign_dir,
                 campaign_name, progress):
        self.params = params
        self.machine = machine
        self.config = config
        self.campaign_dir = campaign_dir
        self.campaign_name = campaign_name or "tune"
        self.progress = progress
        self._store = None
        if campaign_dir is not None:
            from repro.exec.campaign import CampaignStore

            self._store = CampaignStore(campaign_dir, name=self.campaign_name)

    def run(self, batch: Sequence[tuple[int, ...]]) -> Dict[tuple[int, ...], tuple[float, float]]:
        from repro.exec import SimPoint, raise_on_failures

        points = [
            SimPoint(
                self.params,
                Assignment(*counts, name=f"tune{counts}"),
                machine=self.machine,
                num_cpis=self.config.num_cpis,
                contention=self.config.contention,
                backend=self.config.backend,
                label=f"tune{counts}",
            )
            for counts in batch
        ]
        if self._store is not None:
            from repro.exec.campaign import Campaign

            outcomes = Campaign(points, store=self._store).run(
                jobs=self.config.jobs, progress=self.progress
            )
        else:
            from repro.exec import run_points

            outcomes = run_points(
                points, jobs=self.config.jobs, progress=self.progress
            )
        raise_on_failures(outcomes)
        measured = {}
        for counts, outcome in zip(batch, outcomes):
            metrics = outcome.unwrap().metrics
            measured[counts] = (
                metrics.measured_throughput,
                metrics.measured_latency,
            )
        return measured
