"""Command-line interface: flows, exit codes, determinism."""

import hashlib
import json

import pytest

from stylebench.als import load_model
from stylebench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, dispatch
from stylebench.data import load_events
from stylebench.forest import load_forest


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a small evaluation config."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({
        "synth_users": 400,
        "synth_items": 60,
        "synth_sparsity": 0.85,
        "seed": 5,
        "als_factors": 8,
        "als_iterations": 5,
        "forest_trees": 10,
        "forest_negatives_per_user": 8,
    }))
    data_dir = root / "data"
    rc = dispatch(["synth", "--config", str(config), "--out", str(data_dir)])
    assert rc == EXIT_OK
    return root, config, data_dir / "interactions.csv"


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSynth:
    def test_outputs_exist(self, workspace):
        _, _, data_path = workspace
        assert data_path.exists()
        assert data_path.with_name("interactions.users.csv").exists()
        assert data_path.with_name("interactions.items.csv").exists()
        manifest = json.loads((data_path.parent / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["boundary"].endswith("Z")

    def test_loadable_with_features(self, workspace):
        _, _, data_path = workspace
        data = load_events(data_path)
        assert len(data.events) > 0
        assert data.user_features is not None
        assert data.item_features is not None

    def test_deterministic_given_seed(self, workspace, tmp_path):
        root, config, data_path = workspace
        rc = dispatch(["synth", "--config", str(config), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert digest(tmp_path / "interactions.csv") == digest(data_path)

    def test_config_seed_matches_seed_flag(self, tmp_path):
        shape = {"synth_users": 120, "synth_items": 30, "synth_sparsity": 0.85}
        from_config = tmp_path / "config.json"
        from_config.write_text(json.dumps({**shape, "seed": 7}))
        from_flag = tmp_path / "flag.json"
        from_flag.write_text(json.dumps(shape))
        assert dispatch(["synth", "--config", str(from_config), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert dispatch(
            ["synth", "--config", str(from_flag), "--out", str(tmp_path / "b"), "--seed", "7"]
        ) == EXIT_OK
        assert digest(tmp_path / "a" / "interactions.csv") == digest(tmp_path / "b" / "interactions.csv")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["synth_config"]["seed"] == 7


class TestStats:
    def test_prints_summary(self, workspace, capsys):
        _, config, data_path = workspace
        rc = dispatch(["stats", "--config", str(config), "--data", str(data_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "unobserved=" in out
        assert "new_users" in out

    def test_boundary_from_manifest(self, workspace):
        # no --boundary flag: the generator manifest supplies it
        _, config, data_path = workspace
        assert dispatch(["stats", "--config", str(config), "--data", str(data_path)]) == EXIT_OK

    def test_missing_data_file(self, workspace, tmp_path, capsys):
        _, config, _ = workspace
        missing = tmp_path / "nope.csv"
        rc = dispatch(["stats", "--config", str(config), "--data", str(missing)])
        assert rc == EXIT_DATA
        assert "nope.csv" in capsys.readouterr().err


class TestSplit:
    def test_writes_both_sides(self, workspace, tmp_path):
        _, config, data_path = workspace
        rc = dispatch([
            "split", "--config", str(config), "--data", str(data_path),
            "--out", str(tmp_path),
        ])
        assert rc == EXIT_OK
        train = load_events(tmp_path / "train.csv")
        test = load_events(tmp_path / "test.csv")
        full = load_events(data_path)
        assert len(train.events) + len(test.events) == len(full.events)


class TestTrain:
    def test_als_model_round_trips(self, workspace, tmp_path):
        _, config, data_path = workspace
        out = tmp_path / "als.json"
        rc = dispatch([
            "train", "--config", str(config), "--data", str(data_path),
            "--algo", "als", "--out", str(out),
        ])
        assert rc == EXIT_OK
        model = load_model(out)
        assert len(model.loss_trace) == 5

    def test_als_model_independent_of_blas_threads(self, workspace, tmp_path):
        import os
        import subprocess
        import sys

        _, config, data_path = workspace
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"als-{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "stylebench", "train", "--config", str(config),
                 "--data", str(data_path), "--algo", "als", "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_forest_model_round_trips(self, workspace, tmp_path):
        _, config, data_path = workspace
        out = tmp_path / "forest.json"
        rc = dispatch([
            "train", "--config", str(config), "--data", str(data_path),
            "--algo", "forest", "--out", str(out),
        ])
        assert rc == EXIT_OK
        model = load_forest(out)
        assert len(model.trees) == 10


class TestEvaluate:
    def test_reports_written(self, workspace, tmp_path):
        _, config, data_path = workspace
        out = tmp_path / "run1"
        rc = dispatch([
            "evaluate", "--config", str(config), "--data", str(data_path),
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert (out / "report.json").exists()
        assert (out / "tables" / "ndcg.csv").exists()
        assert (out / "report.md").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "interactions.csv" in manifest["inputs"]

    def test_byte_identical_reruns_and_threads(self, workspace, tmp_path):
        _, config, data_path = workspace
        digests = []
        for name, extra in (("a", []), ("b", []), ("c", ["--threads", "2"])):
            out = tmp_path / name
            rc = dispatch([
                "evaluate", "--config", str(config), "--data", str(data_path),
                "--out", str(out), *extra,
            ])
            assert rc == EXIT_OK
            digests.append(digest(out / "report.json"))
        assert digests[0] == digests[1] == digests[2]

    def test_seed_changes_report(self, workspace, tmp_path):
        _, config, data_path = workspace
        digests = []
        for seed in ("5", "6"):
            out = tmp_path / f"seed{seed}"
            rc = dispatch([
                "evaluate", "--config", str(config), "--data", str(data_path),
                "--out", str(out), "--seed", seed,
            ])
            assert rc == EXIT_OK
            digests.append(digest(out / "report.json"))
        assert digests[0] != digests[1]


    def test_report_independent_of_string_hashing(self, workspace, tmp_path):
        # relevance judgments and purchase masks once followed set order,
        # which PYTHONHASHSEED changes; the report must not
        import os
        import subprocess
        import sys
        from pathlib import Path

        _, config, data_path = workspace
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            **json.loads(config.read_text()), "exclude_purchased": True, "grading": "binary",
        }))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
        digests = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "stylebench", "evaluate", "--config", str(cfg),
                 "--data", str(data_path), "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            digests.append(digest(out / "report.json"))
        assert digests[0] == digests[1]


class TestReportCommand:
    def test_rerender_matches(self, workspace, tmp_path):
        _, config, data_path = workspace
        out = tmp_path / "run"
        assert dispatch([
            "evaluate", "--config", str(config), "--data", str(data_path),
            "--out", str(out),
        ]) == EXIT_OK
        again = tmp_path / "again"
        rc = dispatch([
            "report", "--report", str(out / "report.json"),
            "--out", str(again), "--format", "csv,markdown",
        ])
        assert rc == EXIT_OK
        assert (again / "report.md").read_text() == (out / "report.md").read_text()
        for metric in ("ndcg", "ad", "rp"):
            assert (
                (again / "tables" / f"{metric}.csv").read_text()
                == (out / "tables" / f"{metric}.csv").read_text()
            )


class TestEntryPoint:
    def test_module_invocation(self, workspace, tmp_path):
        import subprocess
        import sys

        _, config, data_path = workspace
        proc = subprocess.run(
            [sys.executable, "-m", "stylebench", "stats",
             "--config", str(config), "--data", str(data_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "unobserved=" in proc.stdout

    def test_module_usage_error(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "stylebench", "stats", "--bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_USAGE


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        _, config, data_path = workspace
        rc = dispatch(["stats", "--data", str(data_path), "--bogus"])
        assert rc == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert dispatch(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert dispatch(["evaluate"]) == EXIT_USAGE

    def test_non_rfc3339_boundary_is_usage_error(self, workspace, tmp_path, capsys):
        _, config, data_path = workspace
        rc = dispatch([
            "evaluate", "--config", str(config), "--data", str(data_path),
            "--boundary", "20220828T000000Z", "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_USAGE
        assert "--boundary" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_report_format_is_usage_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{}")
        rc = dispatch([
            "report", "--report", str(report), "--out", str(tmp_path / "out"),
            "--format", "csv,pdf",
        ])
        assert rc == EXIT_USAGE
        assert "pdf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_is_data_error(self, workspace, tmp_path, capsys):
        _, _, data_path = workspace
        config = tmp_path / "bad.json"
        config.write_text('{"als_factorz": 8}')
        rc = dispatch([
            "evaluate", "--config", str(config), "--data", str(data_path),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_DATA
        assert "als_factorz" in capsys.readouterr().err

    def test_malformed_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "user_id,item_id,kind,timestamp,quantity\n"
            "u1,i1,view,2022-01-01T00:00:00Z,0\n"
        )
        rc = dispatch([
            "stats", "--data", str(bad), "--boundary", "2022-01-02T00:00:00Z",
        ])
        assert rc == EXIT_DATA

    def test_non_decimal_quantity_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "user_id,item_id,kind,timestamp,quantity\n"
            "u1,i1,sale,2022-01-01T00:00:00Z,1_0\n"
        )
        rc = dispatch([
            "stats", "--data", str(bad), "--boundary", "2022-01-02T00:00:00Z",
        ])
        assert rc == EXIT_DATA
        assert f"{bad}:2:" in capsys.readouterr().err

    def test_extra_cells_name_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "user_id,item_id,kind,timestamp,quantity\n"
            "\n"
            "u1,i1,sale,2022-01-01T00:00:00Z,1,2\n"
        )
        rc = dispatch([
            "stats", "--data", str(bad), "--boundary", "2022-01-02T00:00:00Z",
        ])
        assert rc == EXIT_DATA
        assert f"{bad}:3: expected 5 cells, got 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sidecar, line",
        [("user_id,age:num\nu1,20\nu1,30\n", 3), ("user_id,age:num,age:num\nu1,20,30\n", 1)],
    )
    def test_malformed_sidecar_is_data_error(self, tmp_path, capsys, sidecar, line):
        data = tmp_path / "events.csv"
        data.write_text(
            "user_id,item_id,kind,timestamp,quantity\n"
            "u1,i1,view,2022-01-01T00:00:00Z,1\n"
        )
        users = tmp_path / "events.users.csv"
        users.write_text(sidecar)
        rc = dispatch([
            "stats", "--data", str(data), "--boundary", "2022-01-02T00:00:00Z",
        ])
        assert rc == EXIT_DATA
        assert f"{users}:{line}:" in capsys.readouterr().err
