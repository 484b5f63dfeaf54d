"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Every workload function runs once at :meth:`STAPParams.tiny`, untraced
and traced; the declaration, the percentile helper and the failure
accounting are checked on the way.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import Assignment, STAPParams, STAPPipeline
from repro.stap.cfar import Detection

from benchmarks.e2e import ROOT, cli, workloads
from benchmarks.e2e.stats import percentile

TINY = STAPParams.tiny()
#: Seven small ranks; the paper's Table 7 cases have more ranks than the
#: tiny problem has work units.
TINY_ASSIGNMENT = Assignment(2, 1, 2, 1, 1, 1, 1, name="tiny")
#: Enough CPIs for a steady-state window (CPIs 3 to n - 2).
TINY_CPIS = 8
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def tiny_options():
    expected = {str(n): workloads.sim_signature(
        STAPPipeline(TINY, TINY_ASSIGNMENT, num_cpis=n, perf=True).run())
        for n in (TINY_CPIS, 1)}
    return {
        "sim-case1": dict(params=TINY, assignment=TINY_ASSIGNMENT,
                          num_cpis=TINY_CPIS, expected=expected),
        "chain-seq": dict(params=TINY, num_cpis=TINY_CPIS),
        "functional-case3": dict(params=TINY, assignment=TINY_ASSIGNMENT,
                                 num_cpis=TINY_CPIS),
        "rt-paper": dict(params=TINY, num_cpis=TINY_CPIS),
    }


def test_declaration_is_within_limits():
    spec = cli.declaration()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end, layers = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(layers) <= 128
    names = [m["name"] for m in end_to_end + layers]
    assert len(names) == len(set(names))
    for metric in end_to_end + layers:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in end_to_end:
        assert 0.0 <= metric["bound"] <= 0.25, metric
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_the_declared_metrics(name, trace, tiny_options):
    doc = cli.run_workload(name, 1, 0.0, trace, **tiny_options[name])
    key = "per_layer" if trace else "end_to_end"
    assert list(doc["metrics"]) == [m["name"] for m in cli.declaration()[key]]
    assert doc["correct"], doc["mismatches"]
    assert doc["fail_frac"] == 0.0 and doc["attempted"] >= 1
    for metric in doc["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0.0 for m in doc["metrics"].values())
    line = json.loads(cli.result_line(doc["correct"], doc["attempted"],
                                      doc["failed"], doc["metrics"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("n", (100, 101, 137, 250))
def test_percentile_leaves_ten_samples_beyond(n):
    samples = np.random.default_rng(n).permutation(n).tolist()
    p90 = percentile(samples, 0.9)
    beyond = sum(s > p90 for s in samples)
    assert beyond >= 10
    if n == 100:
        assert beyond == 10


@pytest.mark.parametrize("name", ("chain-seq", "functional-case3", "rt-paper"))
def test_wrong_detection_counts_as_failure(name, tiny_options, monkeypatch):
    honest = workloads.reference_detections

    def corrupted(params, cubes):
        reference = honest(params, cubes)
        reference[0] += (Detection(0, 0, 0, 1.0, 0.5),)
        return reference

    monkeypatch.setattr(workloads, "reference_detections", corrupted)
    doc = cli.run_workload(name, 1, 0.0, 0, **tiny_options[name])
    assert not doc["correct"]
    # CPI 0 of every run: a functional operation also has its one-CPI runs.
    runs = 1 + workloads.LATENCY_RUNS if name == "functional-case3" else 1
    assert doc["failed"] == runs * doc["operations"]
    assert doc["fail_frac"] > 0.0
    assert all("CPI 0" in line for line in doc["mismatches"])


def test_detections_compare_cells_exactly_and_floats_closely():
    reference = (Detection(3, 1, 40, 2000.0, 100.0), Detection(5, 2, 41, 900.0, 90.0))
    rounded = (reference[0], Detection(5, 2, 41, 900.0, 90.0 * (1 + 1e-9)))
    moved = (reference[0], Detection(5, 2, 42, 900.0, 90.0))
    assert workloads.same_detections(rounded, reference)
    assert not workloads.same_detections(moved, reference)
    assert not workloads.same_detections(reference[:1], reference)


def test_sim_mismatch_is_named(tiny_options):
    options = dict(tiny_options["sim-case1"])
    full = str(TINY_CPIS)
    options["expected"] = dict(options["expected"])
    options["expected"][full] = dict(options["expected"][full], makespan=-1.0)
    doc = cli.run_workload("sim-case1", 1, 0.0, 0, **options)
    assert doc["failed"] == doc["operations"]  # the full runs, not the one-CPI runs
    assert doc["attempted"] == (1 + workloads.LATENCY_RUNS) * doc["operations"]
    assert all("makespan" in line for line in doc["mismatches"])


def test_exits_nonzero_without_the_program(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "chain-seq",
         "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert run.stdout == ""
