"""CLI smoke tests: every subcommand runs and prints the expected shape."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["case", "--name", "case9"])


class TestCommands:
    def test_flops(self, capsys):
        assert main(["flops"]) == 0
        out = capsys.readouterr().out
        assert "doppler" in out
        assert "403,5" in out  # total flops

    def test_closed_pipe_prints_no_traceback(self):
        """``repro-stap ... | grep -q`` closes the pipe early; the CLI must
        exit without a ``BrokenPipeError`` traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "flops"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()

    def test_case_quick(self, capsys):
        assert main(["case", "--name", "case3", "--cpis", "8"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "case3" in out

    def test_case_perf_names_core_and_transfer_path(self, capsys):
        # The core names the transfer path: each core has exactly one.
        assert main(["case", "--name", "case3", "--cpis", "3", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "engine backend        lowered" in out
        assert "transfer path" not in out

    def test_removed_backend_names_rejected(self):
        for name in ("compiled", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["case", "--backend", name])

    def test_roundrobin(self, capsys):
        assert main(["roundrobin", "--nodes", "5", "--cpis", "15"]) == 0
        out = capsys.readouterr().out
        assert "round-robin on 5 nodes" in out

    def test_optimize_throughput(self, capsys):
        assert main(["optimize", "--budget", "30"]) == 0
        out = capsys.readouterr().out
        assert "predicted throughput" in out

    def test_optimize_latency_with_floor(self, capsys):
        assert main([
            "optimize", "--budget", "59", "--objective", "latency",
            "--min-throughput", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted latency" in out

    def test_optimize_confirm_prints_side_by_side(self, capsys):
        assert main([
            "optimize", "--budget", "12", "--params", "tiny",
            "--confirm", "--cpis", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "simulated" in out
        assert "confirmation run" in out

    def test_tune_analytic_only(self, capsys, tmp_path):
        front_path = tmp_path / "front.json"
        assert main([
            "tune", "--budget", "12", "--params", "tiny",
            "--scenario", "legacy_front", "--sim-candidates", "0",
            "--out", str(front_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "candidates prescreened, 0 simulated" in out
        assert "baseline" in out
        from repro.scheduling import ParetoFront

        front = ParetoFront.load(front_path)
        assert front.budget == 12
        assert front.extra["baseline"]["counts"]

    def test_tune_simulated_with_campaign_dir(self, capsys, tmp_path):
        argv = [
            "tune", "--budget", "12", "--params", "tiny",
            "--scenario", "legacy_front", "--cpis", "8",
            "--sim-candidates", "3", "--sim-rounds", "1",
            "--campaign-dir", str(tmp_path / "campaign"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Warm store: the rerun simulates nothing.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out

    def test_tune_unknown_scenario_fails(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="paragon"):
            main([
                "tune", "--budget", "12", "--params", "tiny",
                "--scenario", "warp_drive", "--sim-candidates", "0",
            ])

    def test_detect(self, capsys):
        assert main(["detect", "--cpis", "2"]) == 0
        out = capsys.readouterr().out
        assert "CPI 0:" in out and "CPI 1:" in out

    def test_table1(self, capsys):
        assert main(["table", "--id", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "worst deviation" in out

    def test_table7_quick(self, capsys):
        assert main(["table", "--id", "7", "--case", "case3", "--cpis", "8"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out and "throughput" in out

    def test_table_cpis_reaches_the_runner(self, monkeypatch, capsys):
        """``--cpis`` goes to every simulated runner when given; without
        it each runner keeps its own default."""
        from repro.experiments import TABLE_RUNNERS, TableResult

        calls = []

        def runner(**kwargs):
            calls.append(kwargs)
            return TableResult("Section 2", "stub")

        monkeypatch.setitem(TABLE_RUNNERS, "baseline", runner)
        assert main(["table", "--id", "baseline", "--cpis", "40"]) == 0
        assert main(["table", "--id", "baseline"]) == 0
        assert calls == [{"num_cpis": 40}, {}]
        # Table 1 is analytic: a run length is refused, not dropped.
        assert main(["table", "--id", "1", "--cpis", "40"]) == 2
        assert "does not apply" in capsys.readouterr().err

    @pytest.mark.obs
    def test_case_trace_out_and_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "timeline.json"
        assert main([
            "case", "--name", "case3", "--cpis", "6",
            "--trace-out", str(out_path), "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert "bottleneck report" in out
        assert "bottleneck stage utilization" in out
        assert "wrote timeline" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["num_cpis"] == 6

    def test_timeline(self, capsys):
        assert main(["timeline", "--name", "case3", "--cpis", "6",
                     "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "doppler" in out


class TestCampaignCommands:
    """campaign run / status / resume against a real store directory."""

    RUN = ["campaign", "run", "--kind", "scalability", "--budgets", "10,14",
           "--params", "tiny", "--cpis", "3"]

    def test_run_status_resume_round_trip(self, capsys, tmp_path):
        directory = str(tmp_path / "camp")

        # Partial run: one point simulated, one left pending.
        assert main(self.RUN + ["--dir", directory, "--max-points", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out
        assert "1/2" in out

        # Status from "a second terminal": disk only, no execution.
        assert main(["campaign", "status", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "1/2" in out and "50%" in out

        # Resume finishes the pending point; the first comes from store.
        assert main(["campaign", "resume", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out and "1 from store" in out
        assert "2/2" in out

        # Resuming a finished campaign performs zero simulations.
        assert main(["campaign", "resume", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "2 from store" in out

    def test_status_without_manifest_fails_cleanly(self, capsys, tmp_path):
        directory = str(tmp_path / "empty")
        assert main(["campaign", "resume", "--dir", directory]) == 2
        err = capsys.readouterr().err
        assert "no campaign manifest" in err

    def test_run_speedup_kind(self, capsys, tmp_path):
        # Speedup campaigns hold the other tasks at case-2 (paper-scale)
        # node counts, so they need the paper params.
        assert main([
            "campaign", "run", "--kind", "speedup", "--task", "cfar",
            "--nodes", "4,8", "--cpis", "3", "--dir", str(tmp_path / "sp"),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 points processed" in out and "2/2" in out

    def test_sweep_campaign_dir_flag(self, capsys, tmp_path):
        args = ["sweep", "--task", "cfar", "--nodes", "4,8", "--cpis", "4",
                "--campaign-dir", str(tmp_path / "sw")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 simulated" in first
        assert main(args) == 0  # second run resolves entirely from store
        second = capsys.readouterr().out
        assert "0 simulated, 2 from cache (2 disk)" in second
        # The figure tables themselves are identical either way.
        table = lambda text: [l for l in text.splitlines()
                              if l.startswith(("===", "  ", "nodes"))]
        assert table(second) == table(first)
