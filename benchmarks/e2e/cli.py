"""Command line of the end-to-end benchmark.

``python3 -m benchmarks.e2e --workload NAME --seed S [--seconds N]
[--trace 0|1] [--out FILE]`` runs one workload in this process.  Without
``--workload`` every workload runs, one at a time, each in a fresh
process.

Every metric is printed with its unit, sample count, median and
quartiles; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy
import scipy

from benchmarks.e2e import ROOT
from benchmarks.e2e.stats import percentile, summarize
from benchmarks.e2e.workloads import WORKLOADS

#: Environment variables that set BLAS/OpenMP thread counts; recorded,
#: never changed.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- provenance --------------------------------------------------------------------
def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.26 only prints its configuration
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name) for name in _THREAD_VARS},
        "commit": _commit(),
    }


# -- one workload ------------------------------------------------------------------
def _end_to_end(outcome) -> dict:
    """End-to-end metric -> ``(value, samples it summarizes)``."""
    return {
        "cpis_per_s": (statistics.median(outcome.cpis_per_s), outcome.cpis_per_s),
        "latency_p50_s": (statistics.median(outcome.latency_s), outcome.latency_s),
        "setup_s": (statistics.median(outcome.setup_s), outcome.setup_s),
        "peak_rss_mb": (outcome.peak_rss_mb, [outcome.peak_rss_mb]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 **options) -> dict:
    """Run one workload here and return its full result document.
    ``options`` reach the workload function (the self-test shrinks the
    problem with them)."""
    spec = declaration()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    outcome = WORKLOADS[name](seed, seconds, bool(trace), **options)
    if not outcome.cpis_per_s:
        raise RuntimeError(f"{name}: no operation succeeded; "
                           + "; ".join(outcome.mismatches[:3]))
    if trace:
        unknown = set(outcome.layers) - {m["name"] for m in declared}
        if unknown:
            raise RuntimeError(f"{name}: undeclared layer metrics {sorted(unknown)}")
        # A layer the workload never enters is measured as zero.
        values = {m["name"]: (outcome.layers.get(m["name"], 0.0),
                              [outcome.layers.get(m["name"], 0.0)])
                  for m in declared}
    else:
        values = _end_to_end(outcome)
    metrics = {}
    for metric in declared:
        value, samples = values[metric["name"]]
        if not math.isfinite(value):
            raise RuntimeError(f"{name}: {metric['name']} is {value}")
        entry = {"value": value, "unit": metric["unit"], **summarize(samples)}
        if metric["name"] == "latency_p50_s":
            # The tail is shown, not gated: only chain-seq has enough
            # samples (100) for ten to lie beyond p90.
            entry["p90"] = percentile(samples, 0.9)
            entry["beyond_p90"] = sum(s > entry["p90"] for s in samples)
        metrics[metric["name"]] = entry
    return {
        "provenance": provenance(name, seed, seconds, trace),
        "operations": outcome.operations,
        "setup_repeats": len(outcome.setup_s),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted,
        "correct": outcome.failed == 0 and not outcome.mismatches,
        "mismatches": outcome.mismatches,
        "metrics": metrics,
    }


def report(doc: dict) -> str:
    """Human-readable block for one workload's document."""
    prov = doc["provenance"]
    lines = [
        f"== {prov['workload']}  seed {prov['seed']}  {prov['seconds']:g} s  "
        f"trace {prov['trace']}  ({doc['operations']} operations, "
        f"{doc['setup_repeats']} set-ups)",
        "provenance " + json.dumps(prov, sort_keys=True),
    ]
    for name, m in doc["metrics"].items():
        tail = (f"  p90={m['p90']:.6g} beyond_p90={m['beyond_p90']}"
                if "p90" in m else "")
        lines.append(
            f"{name:<32} {m['value']:>14.6g} {m['unit']:<8} n={m['n']:<4} "
            f"median={m['median']:.6g} q1={m['q1']:.6g} q3={m['q3']:.6g}{tail}")
    lines.append(f"checks: {doc['attempted'] - doc['failed']}/{doc['attempted']} "
                 f"passed, fail_frac {doc['fail_frac']:.6g}")
    lines += [f"mismatch: {line}" for line in doc["mismatches"]]
    return "\n".join(lines)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    })


# -- every workload, each in a fresh process ---------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int, conn) -> None:
    """Spawned-process body: run one workload, print its block, send its
    document home."""
    try:
        doc = run_workload(name, seed, seconds, trace)
        print(report(doc), flush=True)
        conn.send(doc)
    finally:
        conn.close()


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh spawned process, one at a time, so that
    peak memory and lazy caches are per workload."""
    context = multiprocessing.get_context("spawn")
    docs = {}
    for name in WORKLOADS:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_child, name=f"e2e-{name}",
                                  args=(name, seed, seconds, trace, sender))
        process.start()
        sender.close()
        try:
            docs[name] = receiver.recv()
        except EOFError:  # the child died; its traceback is on stderr
            docs[name] = None
        finally:
            receiver.close()
            process.join()
    return docs


# -- entry point -------------------------------------------------------------------
def _arguments(argv):
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e",
        description="End-to-end benchmark of the STAP pipeline's three paths.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload; all, each in a fresh process, if omitted")
    parser.add_argument("--seed", type=int, required=True,
                        help="selects clutter, noise and targets (>= 0)")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced run, per-layer metrics")
    parser.add_argument("--out", type=Path, help="also write the full documents here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = float(declaration()["run_seconds"])
    elif args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker that the real
    runtime's channels (or spawning a child) started, so that no process
    the benchmark started outlives it.  Left alone, the tracker exits
    only after this process has, on its own schedule.  ``_stop`` is
    private, hence the guard."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else argv)
    try:
        return _run(args)
    finally:
        _stop_resource_tracker()


def _run(args) -> int:
    if args.workload:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(report(doc))
        out = doc
        correct, attempted, failed = doc["correct"], doc["attempted"], doc["failed"]
        metrics = doc["metrics"]
    else:
        docs = run_all(args.seed, args.seconds, args.trace)
        out = {"workloads": docs}
        done = [doc for doc in docs.values() if doc is not None]
        correct = len(done) == len(docs) and all(doc["correct"] for doc in done)
        attempted = sum(doc["attempted"] for doc in done)
        failed = sum(doc["failed"] for doc in done)
        metrics = {f"{name}.{metric}": m
                   for name, doc in docs.items() if doc is not None
                   for metric, m in doc["metrics"].items()}
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=2) + "\n")
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1
