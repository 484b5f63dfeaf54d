"""Paired A/B runs of the end-to-end benchmark between two checkouts.

``python3 -m benchmarks.ab --base DIR --change DIR --workload W --seed S
[--pairs N] [--seconds T] [--out FILE]`` runs ``python3 -m benchmarks.e2e
--workload W --seed S --out F`` alternately in the two checkouts (make
them with ``git worktree add``, or any copy of a commit that holds
``src/`` and ``BENCHMARK.json``), ``N`` pairs, one process at a time.
The first of each pair alternates between the sides, so that a drift of
the host over the runs weighs on both.

For each side and each end-to-end metric of ``BENCHMARK.json`` it prints
the median and quartiles over the runs, plus the CPU seconds each run
took per checked CPI (user + system time of the benchmark process and
the workers it waited for, from ``os.wait4``; set-up included).  For
each metric it prints how many pairs the change won (ties are losses),
the exact two-sided sign-test p over the untied pairs, and whether the
medians lie further apart than the base runs' interquartile range.

Run it from the root of either checkout; it imports nothing from the
program under test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

#: Per-run value measured here rather than reported by the benchmark.
CPU_METRIC = "cpu_s_per_cpi"


def quartiles(values: Sequence[float]) -> dict:
    """Median and quartiles (exclusive method, as the benchmark's own
    summaries give them)."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": 1, "median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def wins(base: Sequence[float], change: Sequence[float], higher_is_better: bool) -> int:
    """Pairs in which the change is strictly better than the base."""
    if len(base) != len(change):
        raise ValueError("wins needs paired runs")
    sign = 1.0 if higher_is_better else -1.0
    return sum(sign * (c - b) > 0.0 for b, c in zip(base, change))


def sign_test_p(won: int, lost: int) -> float:
    """Exact two-sided sign-test p of ``won`` against ``lost`` untied pairs."""
    if won < 0 or lost < 0:
        raise ValueError("counts must be non-negative")
    n = won + lost
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(won, lost) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def compare(base: Sequence[float], change: Sequence[float],
            higher_is_better: bool) -> dict:
    """Summary of one metric over paired runs."""
    won = wins(base, change, higher_is_better)
    lost = wins(change, base, higher_is_better)
    b, c = quartiles(base), quartiles(change)
    return {
        "base": b,
        "change": c,
        "wins": won,
        "pairs": len(base),
        "sign_p": sign_test_p(won, lost),
        "apart": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
    }


def run_once(checkout: Path, workload: str, seed: int, seconds, out: Path) -> dict:
    """One benchmark process in ``checkout``: its metric values, CPU
    seconds per checked CPI and check outcome."""
    command = [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    process = subprocess.Popen(command, cwd=checkout, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    doc = json.loads(out.read_text())
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    values[CPU_METRIC] = (usage.ru_utime + usage.ru_stime) / doc["attempted"]
    return {"values": values, "correct": doc["correct"], "failed": doc["failed"],
            "attempted": doc["attempted"], "exit": process.returncode}


def directions(checkout: Path) -> Dict[str, bool]:
    """Metric -> higher is better, from the checkout's ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    better[CPU_METRIC] = False
    return better


def run_pairs(base: Path, change: Path, workload: str, seed: int, pairs: int,
              seconds=None, log=print) -> dict:
    """``pairs`` alternating pairs of runs; returns every run and the
    per-metric comparison."""
    runs: Dict[str, List[dict]] = {"base": [], "change": []}
    sides = {"base": base, "change": change}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        for index in range(pairs):
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            for side in order:
                out = Path(scratch) / f"{side}-{index}.json"
                run = run_once(sides[side], workload, seed, seconds, out)
                runs[side].append(run)
                log(f"pair {index + 1}/{pairs} {side}: " + " ".join(
                    f"{name}={value:.6g}" for name, value in run["values"].items())
                    + ("" if run["correct"] else "  CHECK FAILED"))
    better = directions(base)
    metrics = {
        name: compare([r["values"][name] for r in runs["base"]],
                      [r["values"][name] for r in runs["change"]], up)
        for name, up in better.items()
    }
    return {"workload": workload, "seed": seed, "pairs": pairs, "runs": runs,
            "metrics": metrics}


def report(result: dict) -> str:
    lines = [f"== {result['workload']}  seed {result['seed']}  "
             f"{result['pairs']} pairs (base -> change: median [q1-q3])"]
    for name, m in result["metrics"].items():
        b, c = m["base"], m["change"]
        lines.append(
            f"{name:<16} {b['median']:>10.4g} [{b['q1']:.4g}-{b['q3']:.4g}] -> "
            f"{c['median']:>10.4g} [{c['q1']:.4g}-{c['q3']:.4g}]  "
            f"wins {m['wins']}/{m['pairs']}  sign p {m['sign_p']:.3g}  "
            f"{'apart' if m['apart'] else 'within base IQR'}")
    failed = sum(r["failed"] for runs in result["runs"].values() for r in runs)
    attempted = sum(r["attempted"] for runs in result["runs"].values() for r in runs)
    lines.append(f"checks: {failed} of {attempted} failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.ab",
        description="Paired A/B runs of the end-to-end benchmark.")
    parser.add_argument("--base", type=Path, required=True, help="base checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: the benchmark's)")
    parser.add_argument("--out", type=Path, help="also write every run here (JSON)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    result = run_pairs(args.base.resolve(), args.change.resolve(), args.workload,
                       args.seed, args.pairs, args.seconds)
    print(report(result))
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0 if all(r["correct"] for runs in result["runs"].values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
