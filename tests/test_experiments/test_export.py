"""Tests for result export."""

import csv
import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, fig02
from repro.experiments.export import export_all, result_to_dict, write_result


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(seed=2, n_phases=4, warmup_phases=1,
                             workloads=("poa",))


class TestSerialization:
    def test_result_to_dict_roundtrips_json(self, context):
        result = fig02.run(context)
        payload = result_to_dict(result)
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["experiment"] == result.experiment
        assert len(restored["rows"]) == len(result.rows)

    def test_write_result_files(self, context, tmp_path):
        result = fig02.run(context)
        write_result(result, tmp_path)
        stem = result.experiment.replace(":", "_")
        assert (tmp_path / f"{stem}.json").exists()
        with open(tmp_path / f"{stem}.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(result.headers)
        assert len(rows) == len(result.rows) + 1


class TestExportAll:
    def test_subset_and_manifest(self, context, tmp_path):
        written = export_all(str(tmp_path), context,
                             experiments=("fig2", "table3"))
        assert set(written) == {"fig2:bfs", "table3"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 2
        assert manifest["workloads"] == ["poa"]

    def test_manifest_schema(self, context, tmp_path, monkeypatch):
        monkeypatch.setenv("STARNUMA_GIT_DESCRIBE", "v1.2.3-4-gabcdef0")
        export_all(str(tmp_path), context, experiments=("table3",))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {
            "schema", "seed", "n_phases", "warmup_phases", "workloads",
            "experiments", "presets", "git", "wall_time_s", "obs_trace",
        }
        assert manifest["schema"] == 2
        assert manifest["n_phases"] == 4
        assert manifest["warmup_phases"] == 1
        assert manifest["experiments"] == {"table3": "table3"}
        assert len(manifest["presets"]) == 2
        assert all(isinstance(preset, str) for preset in manifest["presets"])
        assert manifest["git"] == "v1.2.3-4-gabcdef0"
        assert isinstance(manifest["wall_time_s"], float)
        assert manifest["wall_time_s"] >= 0
        assert manifest["obs_trace"] is None  # obs disabled in tests

    def test_manifest_git_falls_back_to_github_sha(self, context, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("STARNUMA_GIT_DESCRIBE", raising=False)
        monkeypatch.setenv("GITHUB_SHA", "abc123")
        export_all(str(tmp_path), context, experiments=("table3",))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["git"] == "abc123"

    def test_fig8_flattens_to_three_files(self, context, tmp_path):
        written = export_all(str(tmp_path), context, experiments=("fig8",))
        assert set(written) == {"fig8a", "fig8b", "fig8c"}
        assert (tmp_path / "fig8b.csv").exists()

    def test_unknown_experiment_rejected(self, context, tmp_path):
        with pytest.raises(KeyError):
            export_all(str(tmp_path), context, experiments=("nope",))

    def test_creates_directory(self, context, tmp_path):
        target = tmp_path / "nested" / "dir"
        export_all(str(target), context, experiments=("table3",))
        assert (Path(target) / "table3.json").exists()


class TestParallelExport:
    def test_jobs_export_is_byte_identical(self, tmp_path):
        """--jobs 4 and --jobs 1 must write identical files.

        fig8 runs Step C in a pool worker, whose BLAS threads are capped
        at its share of the CPUs, against the parent's uncapped run.
        """
        experiments = ("fig2", "table3", "table4", "fig8")
        outputs = {}
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            # Fresh context per run: workers must not depend on what the
            # parent happened to have cached.
            context = ExperimentContext(seed=2, n_phases=4, warmup_phases=1,
                                        workloads=("poa",))
            export_all(str(out), context, experiments, jobs=jobs)
            # The manifest carries volatile fields (wall time); compare
            # it structurally below, everything else byte for byte.
            outputs[jobs] = {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.name != "manifest.json"
            }
            manifest = json.loads((out / "manifest.json").read_text())
            manifest.pop("wall_time_s")
            outputs[jobs]["manifest"] = manifest
        assert outputs[1] == outputs[4]
