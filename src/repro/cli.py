"""Command-line interface: ``repro-stap <command>``.

Subcommands map onto the paper's experiments:

=============  =====================================================
``flops``      Table 1 — flop counts per task
``case``       Table 7/8 — run a named assignment on the Paragon model
``roundrobin`` Section 2 — the RTMCARM baseline
``optimize``   Section 4.1.2 — processor-assignment search
``tune``       simulation-in-the-loop Pareto auto-tuner
``detect``     functional demo — detections from synthetic data
``timeline``   ASCII Gantt of a pipeline run
``sweep``      Figure 11 / scalability sweeps on the parallel executor
``campaign``   durable, resumable sweeps over a shared on-disk store
=============  =====================================================

Also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import (
    CPIStream,
    RadarScenario,
    RoundRobinSTAP,
    STAPParams,
    STAPPipeline,
    SequentialSTAP,
)
from repro.core.timeline import render_timeline
from repro.des.backends import BACKEND_NAMES
from repro.experiments import PAPER_CASES, TABLE_RUNNERS, paper
from repro.scheduling import (
    AnalyticPipelineModel,
    optimize_latency,
    optimize_throughput,
)
from repro.stap import flops


def _enable_metrics(args) -> bool:
    """Turn the metrics registry on when ``--metrics-out`` was given."""
    if not getattr(args, "metrics_out", None):
        return False
    from repro.obs.metrics import metrics_registry

    metrics_registry.enable(reset=True)
    return True


def _executor_counts(snapshot) -> dict:
    """The executor summary figures of a metrics snapshot.

    ``simulated`` counts every simulation a sweep ran: its points and the
    probe phases of measured points, in this process or in pool workers.
    """
    points = {
        status: int(snapshot.value("exec_points_total", {"status": status}))
        for status in ("simulated", "error")
    }
    probes = snapshot.value("exec_probes_total", {"source": "simulated"})
    return {
        "points": int(snapshot.total("exec_points_total")),
        "simulated": points["simulated"] + int(probes),
        "errors": points["error"],
        "hits": int(snapshot.total("exec_cache_hits_total")),
        "disk": int(snapshot.value("exec_cache_hits_total", {"layer": "disk"})),
    }


def _write_metrics(args) -> None:
    """Dump the registry to ``--metrics-out`` in the requested format."""
    from repro.obs.metrics import metrics_registry, write_snapshot

    path = write_snapshot(
        metrics_registry.snapshot(), args.metrics_out, format=args.metrics_format
    )
    metrics_registry.disable()
    print(f"wrote metrics {path} ({args.metrics_format})")


def _add_metrics_flags(subparser) -> None:
    subparser.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write the metrics registry's snapshot to "
                                "PATH after the run")
    subparser.add_argument("--metrics-format", choices=("json", "prom"),
                           default="json",
                           help="snapshot format for --metrics-out "
                                "(JSON or Prometheus text)")


def cmd_flops(_args) -> int:
    print(flops.flops_table(STAPParams.paper()))
    return 0


def cmd_case(args) -> int:
    assignment = PAPER_CASES[args.name]
    trace = bool(args.trace_out or args.report)
    metered = _enable_metrics(args)
    pipeline = STAPPipeline(
        STAPParams.paper(), assignment, num_cpis=args.cpis, perf=args.perf,
        trace=trace, backend=args.backend,
    )
    result = pipeline.run_measured() if args.measured else pipeline.run()
    print(result.metrics.table(f"=== {assignment.name} ==="))
    if args.perf and result.perf is not None:
        print()
        print(result.perf.summary())
    if args.report:
        from repro.obs import build_report

        print()
        print(build_report(result.trace).text())
    if args.trace_out:
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(
            result.trace, args.trace_out, mesh=pipeline.machine.mesh
        )
        print(f"\nwrote timeline {path} (open at https://ui.perfetto.dev)")
    if metered:
        _write_metrics(args)
    if args.profile:
        from repro.perf import profile_run

        _, stats = profile_run(
            STAPPipeline(
                STAPParams.paper(), assignment, num_cpis=args.cpis,
                backend=args.backend,
            ).run,
            sort="tottime",
        )
        print()
        print(stats)
    return 0


def cmd_roundrobin(args) -> int:
    result = RoundRobinSTAP(STAPParams.paper(), num_nodes=args.nodes).run(
        num_cpis=args.cpis
    )
    print(result.summary())
    published = paper.BASELINE
    print(f"(paper, Section 2: up to {published['throughput']:g} CPIs/s "
          f"throughput, {published['latency']:g} s latency on "
          f"{published['nodes']} nodes)")
    return 0


def cmd_optimize(args) -> int:
    params = _preset_params(args.params)
    model = AnalyticPipelineModel(params)
    if args.objective == "throughput":
        assignment = optimize_throughput(model, args.budget)
    else:
        assignment = optimize_latency(
            model, args.budget, min_throughput=args.min_throughput
        )
    print(f"assignment for {args.budget} nodes ({args.objective}):")
    for task, count in zip(
        ("doppler", "easy_weight", "hard_weight", "easy_beamform",
         "hard_beamform", "pulse_compression", "cfar"),
        assignment.counts(),
    ):
        print(f"  {task:<18} {count}")
    predicted_throughput = model.throughput(assignment)
    predicted_latency = model.latency(assignment)
    print(f"predicted throughput: {predicted_throughput:.3f} CPIs/s")
    print(f"predicted latency:    {predicted_latency:.4f} s")
    if args.confirm:
        from repro.exec import SimPoint, run_points

        outcome = run_points(
            [
                SimPoint(
                    params, assignment, num_cpis=args.cpis,
                    label=f"confirm {assignment.name}",
                )
            ]
        )[0]
        metrics = outcome.unwrap().metrics
        source = "cache" if outcome.cached else "simulated"
        print(f"\nconfirmation run ({args.cpis} CPIs, {source}):")
        print(f"{'':>14} {'predicted':>11} {'simulated':>11} {'error':>8}")
        for label, predicted, simulated in (
            ("throughput", predicted_throughput, metrics.measured_throughput),
            ("latency", predicted_latency, metrics.measured_latency),
        ):
            error = (simulated - predicted) / predicted * 100.0
            print(f"{label:>14} {predicted:>11.4f} {simulated:>11.4f} "
                  f"{error:>+7.1f}%")
    return 0


def cmd_tune(args) -> int:
    from repro.machine import machine_scenario
    from repro.obs.metrics import metrics_registry
    from repro.scheduling import TunerConfig, tune

    params = _preset_params(args.params)
    machine = machine_scenario(args.scenario)
    config = TunerConfig(
        objective=args.objective,
        num_cpis=args.cpis,
        sim_candidates=args.sim_candidates,
        sim_rounds=args.sim_rounds,
        jobs=args.jobs,
        backend=args.backend,
    )
    seeds = []
    if args.params == "paper":
        # Ride the paper's evaluated assignments along as seeds so the
        # result states where Table 7/9/10 sit relative to the front.
        seeds = [
            case for case in PAPER_CASES.values()
            if case.total_nodes <= args.budget
        ]
    dash = None
    if args.dashboard:
        from repro.obs import SweepDashboard

        dash = SweepDashboard(label=f"tune:{args.scenario}:{args.budget}")
    with metrics_registry.collect():
        result = tune(
            params,
            args.budget,
            machine=machine,
            config=config,
            seeds=seeds,
            campaign_dir=args.campaign_dir,
            progress=dash,
        )
    counts = _executor_counts(metrics_registry.snapshot())
    print(result.summary())
    print("\nexecutor: {points} points, {simulated} simulated, "
          "{hits} from cache ({disk} disk)".format(**counts))
    if dash is not None:
        print()
        print(dash.summary())
    if args.out:
        front = result.front
        front.extra.update(result.to_dict()["extra"])
        path = front.save(args.out)
        print(f"wrote Pareto front {path}")
    if args.metrics_out:
        _write_metrics(args)
    return 0


def cmd_detect(args) -> int:
    params = STAPParams.small()
    scenario = RadarScenario.standard(seed=args.seed)
    # Keep targets inside the small cube.
    scenario = scenario.with_targets(
        [t for t in scenario.targets if t.range_cell < params.num_ranges]
    )
    if args.rt_workers:
        return _detect_parallel(params, scenario, args)
    stap = SequentialSTAP(params)
    for cube in CPIStream(params, scenario).take(args.cpis):
        report = stap.process(cube)
        print(f"CPI {cube.cpi_index}: {len(report)} detections")
        for det in report.strongest(3):
            print(f"    bin {det.doppler_bin:3d} beam {det.beam} "
                  f"range {det.range_cell:3d} margin {det.margin_db:5.1f} dB")
    return 0


def _detect_parallel(params, scenario, args) -> int:
    """The same detection demo, run by the real parallel runtime."""
    from repro.rt import ParallelSTAP

    stream = CPIStream(params, scenario)
    rt = ParallelSTAP(
        params, stream, num_cpis=args.cpis, workers=args.rt_workers
    )
    print(f"parallel runtime: {rt.plan.total_workers} workers "
          f"{rt.plan.as_dict()}")
    result = rt.run()
    for report in result.reports:
        print(f"CPI {report.cpi_index}: {len(report)} detections")
        for det in report.strongest(3):
            print(f"    bin {det.doppler_bin:3d} beam {det.beam} "
                  f"range {det.range_cell:3d} margin {det.margin_db:5.1f} dB")
    print(f"elapsed {result.elapsed_seconds:.3f} s — "
          f"throughput {result.throughput:.2f} CPIs/s "
          f"(steady {result.steady_throughput:.2f}), "
          f"latency {result.latency:.3f} s")
    return 0


def cmd_table(args) -> int:
    kwargs = {}
    if args.cpis is not None:
        if args.id == "1":
            print("table 1 is analytic; --cpis does not apply", file=sys.stderr)
            return 2
        kwargs["num_cpis"] = args.cpis
    if args.id == "7":
        kwargs["case"] = args.case
    result = TABLE_RUNNERS[args.id](**kwargs)
    print(result.render())
    print(f"worst deviation from paper: {result.worst_error_pct():.1f}%")
    return 0


def cmd_report(args) -> int:
    from repro.experiments import write_report

    path = write_report(args.output, num_cpis=args.cpis, quick=args.quick)
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    from repro.exec import ResultCache, set_default_cache
    from repro.experiments import scalability_curve, speedup_series
    from repro.obs.metrics import metrics_registry

    cache = None if args.no_cache else ResultCache(directory=args.cache_dir)
    if cache is not None:
        set_default_cache(cache)
    dash = None
    if args.dashboard:
        from repro.obs import SweepDashboard

        dash = SweepDashboard(label=f"sweep:{args.kind}")
    with metrics_registry.collect():
        if args.kind == "speedup":
            nodes = [int(n) for n in args.nodes.split(",")]
            series = speedup_series(
                args.task, nodes, num_cpis=args.cpis, jobs=args.jobs, cache=cache,
                backend=args.backend, progress=dash,
                campaign_dir=args.campaign_dir,
            )
            print(f"=== Figure 11 series: {args.task} "
                  f"(jobs={args.jobs}, {len(series)} points) ===")
            print(f"{'nodes':>6} {'comp (s)':>10} {'speedup':>9} "
                  f"{'ideal':>7} {'efficiency':>11}")
            for point in series:
                print(f"{point.nodes:>6} {point.comp_seconds:>10.4f} "
                      f"{point.speedup:>9.3f} {point.ideal_speedup:>7.2f} "
                      f"{point.efficiency:>11.3f}")
        else:
            budgets = [int(b) for b in args.budgets.split(",")]
            curve = scalability_curve(
                budgets, num_cpis=args.cpis, measured=args.measured,
                jobs=args.jobs, cache=cache, backend=args.backend, progress=dash,
                campaign_dir=args.campaign_dir,
            )
            print(f"=== scalability curve (jobs={args.jobs}, "
                  f"{len(curve)} points) ===")
            print(f"{'budget':>7} {'nodes':>6} {'throughput':>11} {'latency':>9}")
            for point in curve:
                print(f"{point.budget:>7} {point.assignment.total_nodes:>6} "
                      f"{point.throughput:>11.4f} {point.latency:>9.4f}")
    counts = _executor_counts(metrics_registry.snapshot())
    print("\nexecutor: {points} points, {simulated} simulated, {hits} from "
          "cache ({disk} disk), {errors} errors".format(**counts))
    if dash is not None:
        print()
        print(dash.summary())
    if args.metrics_out:
        _write_metrics(args)
    return 0


_PARAM_PRESETS = ("paper", "small", "tiny")


def _preset_params(name: str):
    return getattr(STAPParams, name)()


def _campaign_points(args):
    """The declared point set of a ``campaign run`` invocation."""
    from repro.experiments import scalability_points, speedup_points

    params = _preset_params(args.params)
    if args.kind == "speedup":
        nodes = [int(n) for n in args.nodes.split(",")]
        points, _ = speedup_points(
            args.task, nodes, num_cpis=args.cpis, params=params,
            backend=args.backend,
        )
    else:
        budgets = [int(b) for b in args.budgets.split(",")]
        points, _ = scalability_points(
            budgets, num_cpis=args.cpis, params=params,
            measured=args.measured, backend=args.backend,
        )
    return points


def _campaign_execute(campaign, args) -> int:
    """Drain (part of) a campaign's queue and report what happened."""
    from repro.exec import raise_on_failures
    from repro.obs import campaign_status
    from repro.obs.metrics import metrics_registry

    dash = None
    if args.dashboard:
        from repro.obs import SweepDashboard

        dash = SweepDashboard(label=f"campaign:{campaign.store.name}")
    with metrics_registry.collect():
        outcomes = campaign.run(
            jobs=args.jobs, progress=dash, limit=args.max_points
        )
    counts = _executor_counts(metrics_registry.snapshot())
    print("campaign: {points} points processed, {simulated} simulated, "
          "{hits} from store ({disk} disk), {errors} errors".format(**counts))
    print()
    print(campaign_status(args.dir))
    raise_on_failures(outcomes)
    return 0


def cmd_campaign_run(args) -> int:
    from repro.exec import Campaign, CampaignStore

    store = CampaignStore(args.dir, name=args.name or f"{args.kind}")
    campaign = Campaign(_campaign_points(args), store=store)
    return _campaign_execute(campaign, args)


def cmd_campaign_status(args) -> int:
    from repro.obs import campaign_status

    print(campaign_status(args.dir))
    return 0


def cmd_campaign_resume(args) -> int:
    from repro.errors import ExecutionError
    from repro.exec import load_campaign

    try:
        campaign = load_campaign(args.dir)
    except ExecutionError as error:
        print(error, file=sys.stderr)
        return 2
    return _campaign_execute(campaign, args)


def cmd_timeline(args) -> int:
    assignment = PAPER_CASES[args.name]
    result = STAPPipeline(
        STAPParams.paper(), assignment, num_cpis=args.cpis
    ).run()
    start = max(args.cpis // 2 - 1, 0)
    print(render_timeline(result.collector, start, min(start + 3, args.cpis),
                          width=args.width))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stap",
        description="Parallel pipelined STAP reproduction (IPPS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("flops", help="Table 1: flop counts").set_defaults(fn=cmd_flops)

    p_case = sub.add_parser("case", help="run a named node assignment")
    p_case.add_argument("--name", choices=sorted(PAPER_CASES), default="case2")
    p_case.add_argument("--cpis", type=int, default=25)
    p_case.add_argument("--measured", action="store_true",
                        help="two-phase paced latency measurement")
    p_case.add_argument("--perf", action="store_true",
                        help="report the simulator's own wall-clock cost")
    p_case.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help="simulator core (default: the plan-lowered "
                             "core; 'python' runs the reference checker)")
    p_case.add_argument("--profile", action="store_true",
                        help="re-run the case under cProfile and print "
                             "the hottest functions")
    p_case.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Perfetto/Chrome-trace JSON timeline "
                             "of the run to PATH")
    p_case.add_argument("--report", action="store_true",
                        help="print the per-task/per-link bottleneck report")
    _add_metrics_flags(p_case)
    p_case.set_defaults(fn=cmd_case)

    p_rr = sub.add_parser("roundrobin", help="Section 2 baseline")
    p_rr.add_argument("--nodes", type=int, default=25)
    p_rr.add_argument("--cpis", type=int, default=50)
    p_rr.set_defaults(fn=cmd_roundrobin)

    p_opt = sub.add_parser("optimize", help="processor-assignment search")
    p_opt.add_argument("--budget", type=int, required=True)
    p_opt.add_argument("--objective", choices=("throughput", "latency"),
                       default="throughput")
    p_opt.add_argument("--min-throughput", type=float, default=None)
    p_opt.add_argument("--params", choices=_PARAM_PRESETS, default="paper",
                       help="STAP parameter preset the model is built for")
    p_opt.add_argument("--cpis", type=int, default=15,
                       help="CPIs for the --confirm simulation")
    p_opt.add_argument("--confirm", action="store_true",
                       help="run one (cached) simulation of the chosen "
                            "assignment and print predicted vs simulated "
                            "side by side")
    p_opt.set_defaults(fn=cmd_optimize)

    p_tune = sub.add_parser(
        "tune",
        help="simulation-in-the-loop Pareto auto-tuner (analytic "
             "prescreen, then cached simulator refinement)",
    )
    p_tune.add_argument("--budget", type=int, required=True,
                        help="node budget to assign")
    p_tune.add_argument("--objective",
                        choices=("pareto", "throughput", "latency"),
                        default="pareto")
    p_tune.add_argument("--params", choices=_PARAM_PRESETS, default="paper",
                        help="STAP parameter preset")
    p_tune.add_argument("--scenario", default="paragon",
                        help="machine scenario (see repro.machine: paragon, "
                             "fat_nodes, fast_links, gpu_nodes, legacy_front)")
    p_tune.add_argument("--cpis", type=int, default=15,
                        help="CPIs per refinement simulation")
    p_tune.add_argument("--jobs", type=int, default=1,
                        help="worker processes for refinement simulations")
    p_tune.add_argument("--sim-candidates", type=int, default=12,
                        help="candidates simulated per refinement round "
                             "(0 = analytic prescreen only, no simulation)")
    p_tune.add_argument("--sim-rounds", type=int, default=2,
                        help="refinement rounds around the measured winners")
    p_tune.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                        help="simulator core for refinement runs")
    p_tune.add_argument("--campaign-dir", metavar="PATH", default=None,
                        help="root refinement runs in a durable campaign "
                             "store at PATH (interrupt and rerun to resume; "
                             "a warm store re-simulates nothing)")
    p_tune.add_argument("--dashboard", action="store_true",
                        help="live progress line on stderr during "
                             "refinement rounds")
    p_tune.add_argument("--out", metavar="PATH", default=None,
                        help="write the tuned Pareto front as versioned "
                             "JSON to PATH")
    _add_metrics_flags(p_tune)
    p_tune.set_defaults(fn=cmd_tune)

    p_det = sub.add_parser("detect", help="functional detection demo")
    p_det.add_argument("--cpis", type=int, default=4)
    p_det.add_argument("--seed", type=int, default=20260707)
    p_det.add_argument(
        "--rt-workers", type=int, default=0, metavar="N",
        help="run the real process-parallel runtime with N workers "
             "(0 = sequential in-process demo)")
    p_det.set_defaults(fn=cmd_detect)

    p_tab = sub.add_parser("table", help="reproduce one of the paper's tables")
    p_tab.add_argument("--id", choices=TABLE_RUNNERS, required=True)
    p_tab.add_argument("--case", choices=paper.TABLE7, default="case2",
                       help="for table 7")
    p_tab.add_argument("--cpis", type=int, default=None,
                       help="CPIs per run (default: the table's own)")
    p_tab.set_defaults(fn=cmd_table)

    p_rep = sub.add_parser("report", help="write the full reproduction report")
    p_rep.add_argument("--output", default="reproduction_report.md")
    p_rep.add_argument("--cpis", type=int, default=25)
    p_rep.add_argument("--quick", action="store_true",
                       help="case 3 only, short runs")
    p_rep.set_defaults(fn=cmd_report)

    p_sw = sub.add_parser(
        "sweep",
        help="run an experiment sweep on the parallel executor",
    )
    p_sw.add_argument("--kind", choices=("speedup", "scalability"),
                      default="speedup")
    p_sw.add_argument("--task", default="cfar",
                      help="swept task for --kind speedup")
    p_sw.add_argument("--nodes", default="4,8,16",
                      help="comma-separated node counts (speedup)")
    p_sw.add_argument("--budgets", default="30,59,118",
                      help="comma-separated node budgets (scalability)")
    p_sw.add_argument("--cpis", type=int, default=25)
    p_sw.add_argument("--measured", action="store_true",
                      help="two-phase paced measurement per point "
                           "(scalability)")
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="worker processes for independent points")
    p_sw.add_argument("--cache-dir", metavar="PATH", default=None,
                      help="persist results on disk (content-addressed)")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="disable the result cache entirely")
    p_sw.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                      help="simulator core for every point of the sweep")
    p_sw.add_argument("--dashboard", action="store_true",
                      help="live progress line on stderr plus a final "
                           "campaign summary (rate, hit rate, stage "
                           "latency sparklines)")
    p_sw.add_argument("--campaign-dir", metavar="PATH", default=None,
                      help="run the sweep as a durable campaign rooted at "
                           "PATH (declared manifest + shared store; "
                           "interrupt and rerun to resume)")
    _add_metrics_flags(p_sw)
    p_sw.set_defaults(fn=cmd_sweep)

    p_cp = sub.add_parser(
        "campaign",
        help="durable, resumable sweeps over a shared on-disk store",
    )
    cp_sub = p_cp.add_subparsers(dest="action", required=True)

    def _add_campaign_exec_flags(p) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for pending points")
        p.add_argument("--max-points", type=int, default=None, metavar="K",
                       help="simulate at most K pending points this "
                            "invocation; the rest stay pending for a "
                            "later resume")
        p.add_argument("--dashboard", action="store_true",
                       help="live progress line on stderr while running")

    p_cr = cp_sub.add_parser(
        "run", help="declare a point set into DIR and drain its queue")
    p_cr.add_argument("--dir", required=True, metavar="PATH",
                      help="campaign directory (manifest.json + results/)")
    p_cr.add_argument("--name", default=None,
                      help="campaign display name (default: the kind)")
    p_cr.add_argument("--kind", choices=("speedup", "scalability"),
                      default="speedup")
    p_cr.add_argument("--task", default="cfar",
                      help="swept task for --kind speedup")
    p_cr.add_argument("--nodes", default="4,8,16",
                      help="comma-separated node counts (speedup)")
    p_cr.add_argument("--budgets", default="30,59,118",
                      help="comma-separated node budgets (scalability)")
    p_cr.add_argument("--cpis", type=int, default=25)
    p_cr.add_argument("--measured", action="store_true",
                      help="two-phase paced measurement per point "
                           "(scalability)")
    p_cr.add_argument("--params", choices=_PARAM_PRESETS, default="paper",
                      help="STAP parameter preset for every point")
    p_cr.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                      help="simulator core for every point")
    _add_campaign_exec_flags(p_cr)
    p_cr.set_defaults(fn=cmd_campaign_run)

    p_cs = cp_sub.add_parser(
        "status",
        help="report a campaign's progress from its store alone "
             "(works from a second terminal against a live campaign)")
    p_cs.add_argument("--dir", required=True, metavar="PATH")
    p_cs.set_defaults(fn=cmd_campaign_status)

    p_cres = cp_sub.add_parser(
        "resume",
        help="rebuild the point set from DIR's manifest and finish "
             "whatever is still pending")
    p_cres.add_argument("--dir", required=True, metavar="PATH")
    _add_campaign_exec_flags(p_cres)
    p_cres.set_defaults(fn=cmd_campaign_resume)

    p_tl = sub.add_parser("timeline", help="ASCII Gantt of a pipeline run")
    p_tl.add_argument("--name", choices=sorted(PAPER_CASES), default="case3")
    p_tl.add_argument("--cpis", type=int, default=10)
    p_tl.add_argument("--width", type=int, default=100)
    p_tl.set_defaults(fn=cmd_timeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``, ``| grep -q``).  Point stdout
        # at devnull so the interpreter's exit flush cannot raise again,
        # and exit without a traceback (the idiom in Python's ``signal``
        # docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
