"""Task scheduling and processor assignment (Section 4.1.2).

"When several parallel tasks need to be executed in a pipelined fashion,
tradeoffs exist between assigning processors to maximize the overall
throughput and assigning processors to minimize a single data set's
response time."  This package provides:

* :mod:`repro.scheduling.model` — a closed-form analytic model
  ``T_i(P_i)`` of each task's per-CPI time (compute + pack/unpack + wire),
  and predictors for equation-(1) throughput and equation-(2) latency;
* :mod:`repro.scheduling.optimizer` — processor-assignment search: greedy
  marginal allocation (provably optimal for the max-bottleneck objective
  with convex decreasing ``T_i``) and exhaustive search for small budgets;
* :mod:`repro.scheduling.bottleneck` — post-run analysis of a
  :class:`~repro.core.pipeline.PipelineResult`: which task limits
  throughput, and where idle time hides (the Table 10 effect);
* :mod:`repro.scheduling.pareto` — throughput-vs-latency Pareto fronts as
  versioned JSON artifacts;
* :mod:`repro.scheduling.tuner` — simulation-in-the-loop assignment
  search: analytic prescreen over single-node :class:`Move` neighborhoods,
  then cached/parallel simulator refinement, heterogeneous-machine aware.
"""

from repro.scheduling.model import AnalyticPipelineModel, TaskTimeModel
from repro.scheduling.optimizer import (
    optimize_throughput,
    optimize_latency,
    exhaustive_search,
)
from repro.scheduling.bottleneck import BottleneckReport, analyze_bottleneck
from repro.scheduling.pareto import (
    PARETO_SCHEMA,
    ParetoFront,
    ParetoPoint,
    pareto_front,
)
from repro.scheduling.tuner import Move, TuneResult, TunerConfig, tune

__all__ = [
    "Move",
    "AnalyticPipelineModel",
    "TaskTimeModel",
    "optimize_throughput",
    "optimize_latency",
    "exhaustive_search",
    "BottleneckReport",
    "analyze_bottleneck",
    "PARETO_SCHEMA",
    "ParetoFront",
    "ParetoPoint",
    "pareto_front",
    "TunerConfig",
    "TuneResult",
    "tune",
]
