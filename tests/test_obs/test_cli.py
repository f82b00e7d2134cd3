"""The obs-facing CLI surface: --obs-trace, obs summary, obs validate."""

import pytest

from repro.cli import main
from repro.obs import OBS


@pytest.fixture
def trace(tmp_path):
    """A real trace from a small run."""
    path = tmp_path / "t.jsonl"
    code = main(["run", "fig8", "--phases", "3", "--warmup", "1",
                 "--workloads", "bfs", "--obs-trace", str(path)])
    assert code == 0
    return path


class TestRunWithTrace:
    def test_writes_valid_trace_and_disarms(self, trace, capsys):
        assert not OBS.enabled
        assert main(["obs", "validate", str(trace)]) == 0
        assert "valid obs trace" in capsys.readouterr().out

    def test_stdout_is_byte_identical_with_and_without_obs(
            self, tmp_path, capsys):
        args = ["run", "fig2", "--phases", "3", "--warmup", "1",
                "--workloads", "poa"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--obs-trace", str(tmp_path / "t.jsonl")]) == 0
        assert capsys.readouterr().out == plain


class TestSummary:
    def test_prints_timeline_and_counts(self, trace, capsys):
        assert main(["obs", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase timeline (eval ms):" in out
        assert "sim.fixed_point.iterations" in out
        assert "migration.decisions" in out

    def test_width_flag(self, trace, capsys):
        assert main(["obs", "summary", str(trace), "--width", "10"]) == 0
        assert "phase timeline" in capsys.readouterr().out

    def test_bad_width_rejected(self, trace, capsys):
        assert main(["obs", "summary", str(trace), "--width", "0"]) == 2
        assert "--width" in capsys.readouterr().err

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_trace_id_on_jsonl_is_an_error(self, trace, capsys):
        assert main(["obs", "summary", str(trace), "--trace-id", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--trace-id" in captured.err


class TestValidate:
    def test_flags_broken_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"event","name":"e","t_ns":1,"attrs":{}}\n')
        assert main(["obs", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "meta header" in out
        assert "problem(s)" in out


class TestLogging:
    def test_error_format_preserved(self, capsys):
        assert main(["export"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("starnuma: error:")
        assert err.count("\n") == 1

    def test_quiet_suppresses_info(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["-q", "export", "--out", str(out_dir),
                     "--experiments", "table3", "--phases", "3",
                     "--warmup", "1", "--workloads", "poa"]) == 0
        assert capsys.readouterr().err == ""

    def test_obs_trace_notice_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["run", "fig2", "--phases", "3", "--warmup", "1",
                     "--workloads", "poa", "--obs-trace", str(path)]) == 0
        assert f"obs trace written to {path}" in capsys.readouterr().err
