"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "masstree" in out


class TestRun:
    def test_run_fig2(self, capsys):
        code = main(["run", "fig2", "--phases", "4", "--warmup", "1",
                     "--workloads", "bfs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharers" in out

    def test_run_table3_subset(self, capsys):
        code = main(["run", "table3", "--phases", "4", "--warmup", "1",
                     "--workloads", "poa"])
        assert code == 0
        assert "poa" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        code = main(["run", "fig2", "--workloads", "bogus"])
        assert code == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestDescribe:
    def test_describe_starnuma(self, capsys):
        assert main(["describe", "starnuma"]) == 0
        out = capsys.readouterr().out
        assert "pool" in out
        assert "cxl" in out
        assert "T16" in out

    def test_describe_baseline_has_no_pool(self, capsys):
        assert main(["describe", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "no pool" in out
        assert "cxl" not in out

    def test_describe_full_scale(self, capsys):
        assert main(["describe", "full-scale"]) == 0
        assert "448 cores" in capsys.readouterr().out

    def test_describe_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["describe", "bogus"])


class TestExport:
    def test_export_subset(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path),
                     "--experiments", "table3",
                     "--phases", "4", "--warmup", "1",
                     "--workloads", "poa"])
        assert code == 0
        assert (tmp_path / "table3.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_export_requires_out(self, capsys):
        assert main(["export"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_export_out_resume_conflict(self, capsys):
        code = main(["export", "--out", "/tmp/a", "--resume", "/tmp/b"])
        assert code == 2
        assert "different" in capsys.readouterr().err

    def test_export_unknown_experiment(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path),
                     "--experiments", "not-real"])
        assert code == 2
        assert "not-real" in capsys.readouterr().err


class TestValidation:
    def test_warmup_must_be_below_phases(self, capsys):
        code = main(["run", "fig8", "--warmup", "12", "--phases", "12"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message
        assert "warmup" in err

    def test_phases_must_be_positive(self, capsys):
        assert main(["run", "fig8", "--phases", "0"]) == 2
        assert "--phases" in capsys.readouterr().err

    def test_seed_must_be_non_negative(self, capsys):
        assert main(["run", "fig8", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_export_validated_too(self, capsys, tmp_path):
        code = main(["export", "--out", str(tmp_path),
                     "--warmup", "9", "--phases", "4"])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_export_negative_retries(self, capsys, tmp_path):
        code = main(["export", "--out", str(tmp_path), "--retries", "-1"])
        assert code == 2
        assert "--retries" in capsys.readouterr().err

    def test_export_non_positive_timeout(self, capsys, tmp_path):
        code = main(["export", "--out", str(tmp_path),
                     "--run-timeout", "0"])
        assert code == 2
        assert "--run-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        pytest.param("run fig8", "--batch-jobs", id="run fig8"),
        pytest.param("export", "--batch-jobs", id="export"),
        pytest.param("run fig8", "--batch-lanes",
                     id="run fig8 --batch-lanes"),
        pytest.param("export", "--batch-lanes", id="export --batch-lanes"),
    ])
    def test_batch_jobs_is_an_unknown_argument(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + [flag, "2"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" \
            in capsys.readouterr().err


class TestRunResume:
    def test_run_resume_skips_completed(self, tmp_path, capsys):
        args = ["run", "fig2", "--phases", "4", "--warmup", "1",
                "--workloads", "bfs", "--resume", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "checkpoint.json").exists()
        assert "sharers" in capsys.readouterr().out

        assert main(args) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        assert "sharers" not in captured.out  # not recomputed
