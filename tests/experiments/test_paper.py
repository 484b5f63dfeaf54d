"""The paper's published numbers: one home, derived views, runner cells."""

import ast
from decimal import Decimal
from pathlib import Path

import pytest

from repro.experiments import (
    PAPER_CASES,
    paper,
    run_table7,
    run_table8,
    run_table9,
    run_table10,
)

ROOT = Path(__file__).resolve().parents[2]

#: The only files allowed to type a published value.
HOMES = {
    ROOT / "src" / "repro" / "experiments" / "paper.py",
    ROOT / "src" / "repro" / "stap" / "flops.py",
}


def _significant_digits(value: float) -> int:
    return len(Decimal(repr(value)).normalize().as_tuple().digits)


def _published_floats() -> set[float]:
    """Every float in the module's tables with >= 3 significant digits
    (a bare 10.0 or 0.0003 would match unrelated constants)."""
    found = set()

    def walk(value):
        if isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, tuple):
            for item in value:
                walk(item)
        elif isinstance(value, float) and _significant_digits(value) >= 3:
            found.add(value)

    for name, value in vars(paper).items():
        if name.isupper():
            walk(value)
    return found


def _scanned_files():
    e2e = ROOT / "benchmarks" / "e2e"
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path not in HOMES and e2e not in path.parents:
                yield path


class TestOneHome:
    def test_published_values_found(self):
        published = _published_floats()
        assert 0.0874 in published and 2.35 in published
        assert 10.0 not in published

    def test_no_published_literal_outside_its_home(self):
        published = _published_floats()
        strays = []
        for path in _scanned_files():
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant)
                        and type(node.value) is float
                        and node.value in published):
                    strays.append(
                        f"{path.relative_to(ROOT)}:{node.lineno}: {node.value}"
                    )
        assert not strays, "published values typed twice:\n" + "\n".join(strays)


class TestDerivedViews:
    def test_fig11_anchors_are_table7_comp_by_node_count(self):
        assert paper.FIG11_COMP_ANCHORS == {
            "doppler": {32: 0.0874, 16: 0.1714, 8: 0.3509},
            "easy_weight": {16: 0.0913, 8: 0.1636, 4: 0.3254},
            "hard_weight": {112: 0.0831, 56: 0.1636, 28: 0.3265},
            "easy_beamform": {16: 0.0708, 8: 0.1267, 4: 0.2529},
            "hard_beamform": {28: 0.0414, 14: 0.0822, 7: 0.1636},
            "pulse_compression": {16: 0.0776, 8: 0.1543, 4: 0.3067},
            "cfar": {16: 0.0434, 8: 0.0864, 4: 0.1723},
        }

    def test_table9_recv_pairs_table7_case2_with_table9(self):
        assert paper.TABLE9_RECV == {
            "easy_weight": (0.0998, 0.0519),
            "hard_weight": (0.0979, 0.0486),
            "easy_beamform": (0.1302, 0.0815),
            "hard_beamform": (0.1782, 0.1232),
            "pulse_compression": (0.1027, 0.0519),
            "cfar": (0.1742, 0.1240),
        }

    def test_table8_node_counts(self):
        nodes = {case: PAPER_CASES[case].total_nodes for case in paper.TABLE8}
        assert nodes == {"case1": 236, "case2": 118, "case3": 59}


class TestRunnerCells:
    """The runners' paper cells come from the module (short runs)."""

    def test_table7_case3(self):
        result = run_table7("case3", num_cpis=8)
        for task, published in paper.TABLE7["case3"].items():
            cells = result.rows[task]
            assert (cells["recv"].paper, cells["comp"].paper,
                    cells["send"].paper) == published
        assert result.rows["cfar"]["send"].paper is None
        assert (result.rows["throughput"]["CPIs/s"].paper
                == paper.TABLE8["case3"]["throughput"])

    def test_table8_equation_cells(self):
        cells = run_table8(num_cpis=10, cases=("case3",)).rows["case3"]
        for column, published in paper.TABLE8["case3"].items():
            assert cells[column].paper == published, column

    def test_table9_cells(self):
        result = run_table9(num_cpis=10)
        assert result.rows["throughput"]["122 nodes"].paper == 5.0213
        assert result.rows["throughput gain"]["%"].paper == pytest.approx(
            32.28, abs=0.01
        )
        assert result.rows["latency gain"]["%"].paper == pytest.approx(
            19.21, abs=0.01
        )
        for task, (before, after) in paper.TABLE9_RECV.items():
            assert result.rows[task]["recv (118)"].paper == before
            assert result.rows[task]["recv (122)"].paper == after

    def test_table10_cells(self):
        result = run_table10(num_cpis=10)
        latency = result.rows["latency"]
        assert (latency["122 nodes"].paper, latency["138 nodes"].paper) == (
            0.5498, 0.4247
        )
        assert result.rows["throughput ratio"]["x"].paper == 4.9052 / 5.0213
        assert result.rows["latency gain"]["%"].paper == pytest.approx(
            22.75, abs=0.01
        )
