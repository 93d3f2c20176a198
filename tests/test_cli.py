"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main, parse_monitor
from repro.io.taskset_json import taskset_from_json


class TestParseMonitor:
    def test_simple(self):
        spec = parse_monitor("simple:0.6")
        assert spec.kind == "simple" and spec.param == 0.6

    def test_defaults(self):
        spec = parse_monitor("none")
        assert spec.kind == "none"

    def test_extra(self):
        spec = parse_monitor("clamped:0.6:0.3")
        assert (spec.kind, spec.param, spec.extra) == ("clamped", 0.6, 0.3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_monitor("magic:0.5")


class TestGenerate:
    def test_to_stdout(self, capsys):
        assert main(["generate", "--seed", "3", "--m", "2"]) == 0
        out = capsys.readouterr().out
        ts = taskset_from_json(out)
        assert ts.m == 2

    def test_to_file(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        assert main(["generate", "--seed", "3", "--m", "2", "-o", str(path)]) == 0
        ts = taskset_from_json(path.read_text())
        assert len(ts) > 5


class TestAnalyze:
    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        main(["generate", "--seed", "3", "--m", "2", "-o", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schedulable" in out
        assert "shared delay term" in out

    def test_generated_inline(self, capsys):
        assert main(["analyze", "--seed", "3", "--m", "2"]) == 0
        assert "bound (ms)" in capsys.readouterr().out


class TestSimulate:
    def test_text_output(self, capsys):
        assert main(["simulate", "--seed", "3", "--m", "2",
                     "--scenario", "SHORT", "--monitor", "simple:0.6"]) == 0
        out = capsys.readouterr().out
        assert "SIMPLE(s=0.6)" in out
        assert "dissipation" in out

    def test_json_output(self, capsys):
        assert main(["simulate", "--seed", "3", "--m", "2", "--json",
                     "--monitor", "adaptive:0.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monitor"] == "ADAPTIVE(a=0.4)"
        assert doc["dissipation"] > 0

    def test_extension_monitor(self, capsys):
        assert main(["simulate", "--seed", "3", "--m", "2",
                     "--monitor", "clamped:0.6:0.3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_speed"] >= 0.3 - 1e-9

    def test_bad_monitor_errors(self):
        with pytest.raises(ValueError):
            main(["simulate", "--seed", "3", "--m", "2", "--monitor", "bogus:1"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "--figure", "6"])
        assert args.figure == "6"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "5"])


class TestObservabilityFlags:
    def test_trace_dir_and_metrics_out(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        metrics = tmp_path / "metrics.json"
        assert main(["simulate", "--seed", "3", "--m", "2",
                     "--trace-dir", str(trace_dir),
                     "--metrics-out", str(metrics)]) == 0
        traces = list(trace_dir.glob("run-*.jsonl"))
        assert len(traces) == 1
        doc = json.loads(metrics.read_text())
        assert doc["format"] == "repro-sweep-report"
        assert doc["summary"]["cells_simulated"] == 1
        assert "executor.cell.ns" in doc["metrics"]["histograms"]

    def test_truncation_warning(self, capsys):
        # A horizon just past the overload window catches recovery open.
        assert main(["simulate", "--seed", "3", "--m", "2",
                     "--horizon", "0.6"]) == 0
        err = capsys.readouterr().err
        assert "recovery still open" in err

    def test_no_warning_when_settled(self, capsys):
        assert main(["simulate", "--seed", "3", "--m", "2"]) == 0
        assert "recovery still open" not in capsys.readouterr().err

    def test_progress_flag(self, capsys):
        assert main(["simulate", "--seed", "3", "--m", "2", "--progress"]) == 0
        assert "[sweep] 1/1 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "3", "--m", "2"],
        ["simulate", "--seed", "3", "--m", "2", "--service", "127.0.0.1:1"],
        ["figures", "--figure", "6", "--tasksets", "1"],
        ["faults", "run", "--cells", "1", "--tasksets", "1"],
    ])
    def test_telemetry_refused_without_checkpoint_dir(
        self, argv, monkeypatch, capsys
    ):
        import repro.experiments.runner as runner

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(runner, "run_overload_experiment", no_cell)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--telemetry"])
        assert exc.value.code == 2
        assert "--telemetry needs --checkpoint-dir" in capsys.readouterr().err


class TestTraceCommand:
    def _make_trace(self, tmp_path):
        trace_dir = tmp_path / "traces"
        main(["simulate", "--seed", "3", "--m", "2",
              "--trace-dir", str(trace_dir)])
        [path] = trace_dir.glob("run-*.jsonl")
        return path

    def test_summarize_text(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "events over t=" in out
        assert "job_release" in out

    def test_summarize_json(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["trace_meta"] == 1
        assert doc["events"] == sum(doc["counts"].values())

    def test_convert(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        out = tmp_path / "chrome.json"
        capsys.readouterr()
        assert main(["trace", "convert", str(path), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert "wrote" in capsys.readouterr().out
