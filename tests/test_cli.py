"""Command-line interface: flows, exit codes, determinism."""

import hashlib
import json

import pytest

from stylebench import cli
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


# a report path -> an edit that leaves that entry malformed
# case id -> edit of a valid report; the error names the id up to any "="
ENTRY_EDITS = {
    "cells.ndcg.average.MP.value": lambda p: p["cells"]["ndcg"]["average"].update(MP={}),
    "cells.ad.sale_users.CF.sd": lambda p: p["cells"]["ad"]["sale_users"].update(CF={"point": 1}),
    "cells.rp.new_users.MP": lambda p: p["cells"]["rp"]["new_users"].update(MP=[0.5, 0.1]),
    "coverage.MP.covered": lambda p: p["coverage"].update(MP={}),
    "coverage.CF": lambda p: p["coverage"].pop("CF"),
    "config.algorithms": lambda p: p["config"].update(algorithms="MP"),
    'cells.ndcg.average.MP.value="x"': lambda p: p["cells"]["ndcg"]["average"].update(
        MP={"value": "x", "pct_over_random": 5.0}
    ),
    "cells.ndcg.view_users.CF.pct_over_random=NaN": lambda p: p["cells"]["ndcg"][
        "view_users"
    ].update(CF={"value": 0.1, "pct_over_random": float("nan")}),
    "cells.ndcg.new_users.MP.value=10**400": lambda p: p["cells"]["ndcg"]["new_users"].update(
        MP={"value": 10**400, "pct_over_random": 5.0}
    ),
    "cells.ad.average.MP.point=null": lambda p: p["cells"]["ad"]["average"].update(
        MP={"point": None, "sd": 0.5}
    ),
    "cells.rp.sale_users.CF.sd=true": lambda p: p["cells"]["rp"]["sale_users"].update(
        CF={"point": 0.3, "sd": True}
    ),
    'short_head.short_head_fraction="x"': lambda p: p["short_head"].update(
        short_head_fraction="x"
    ),
    "short_head.total_sales=null": lambda p: p["short_head"].update(total_sales=None),
}


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

    def test_report_missing_a_row_is_data_error(self, tmp_path, capsys):
        payload = report_payload({"MP": None})
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload))
        assert dispatch(["report", "--report", str(report), "--out", str(tmp_path / "ok")]) == EXIT_OK
        del payload["cells"]["rp"]["average"]
        report.write_text(json.dumps(payload))
        rc = dispatch(["report", "--report", str(report), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert "'cells.rp.average'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", list(ENTRY_EDITS))
    def test_report_missing_an_entry_is_data_error(self, tmp_path, capsys, path):
        cells = {
            "ndcg": {"value": 0.1, "pct_over_random": 5.0},
            "ad": {"point": 2.0, "sd": 0.5},
            "rp": {"point": 0.3, "sd": 0.1},
        }
        payload = report_payload({"MP": None, "CF": None})
        for metric, cell in cells.items():
            for row in payload["cells"][metric].values():
                row.update(MP=cell, CF=cell)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload))
        assert dispatch(["report", "--report", str(report), "--out", str(tmp_path / "ok")]) == EXIT_OK
        ENTRY_EDITS[path](payload)
        report.write_text(json.dumps(payload))
        rc = dispatch(["report", "--report", str(report), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        lacking = path.split("=")[0]
        assert f"report {report} has no valid {lacking!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def report_payload(cells: dict) -> dict:
    """A minimal report listing ``cells``' algorithms, each covered once,
    with ``cells`` in every metric x segment row."""
    rows = ("sale_users", "view_users", "new_users", "average")
    return {
        "config": {"algorithms": list(cells), "k": 10, "seed": 0, "boundary": "b"},
        "coverage": {a: {"covered": 1, "uncovered": 0} for a in cells},
        "short_head": {"short_head_fraction": 0.5, "n_short_head_items": 1,
                       "n_items": 2, "total_sales": 3},
        "cells": {m: {row: dict(cells) for row in rows} for m in ("ndcg", "ad", "rp")},
    }


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

    @pytest.mark.parametrize("content", [b"{", b"[]", b"{}", b'{"config": "\xff"}'])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, content):
        report = tmp_path / "report.json"
        report.write_bytes(content)
        rc = dispatch(["report", "--report", str(report), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert f"report {report}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("what", ["data", "config", "users sidecar", "manifest"])
    def test_unreadable_input_is_data_error(self, workspace, tmp_path, capsys, what):
        _, config, data_path = workspace
        data = tmp_path / "interactions.csv"
        data.write_bytes(data_path.read_bytes())
        paths = {
            "data": data,
            "config": tmp_path / "cfg",
            "users sidecar": tmp_path / "interactions.users.csv",
            "manifest": tmp_path / "manifest.json",
        }
        if what == "data":
            data.unlink()
        paths[what].mkdir()
        argv = ["stats", "--data", str(data)]
        if what == "config":
            argv += ["--config", str(paths[what])]
        assert dispatch(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(paths[what]) in err and "Traceback" not in err

    def test_report_directory_is_data_error(self, tmp_path, capsys):
        rc = dispatch(["report", "--report", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert f"report {tmp_path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "split", "train", "evaluate", "report"])
    def test_out_of_the_wrong_kind_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        _, config, data_path = workspace

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("load_events", "generate_dataset", "render_report"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "out"
        if command == "train":
            out.mkdir()
        else:
            out.write_text("")
        argv = {
            "synth": ["synth"],
            "split": ["split", "--data", str(data_path)],
            "train": ["train", "--data", str(data_path), "--algo", "forest"],
            "evaluate": ["evaluate", "--data", str(data_path)],
            "report": ["report", "--report", str(tmp_path / "report.json")],
        }[command]
        if command != "report":
            argv += ["--config", str(config)]
        assert dispatch([*argv, "--out", str(out)]) == EXIT_USAGE
        assert f"--out {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_over_wide_features_per_split_is_data_error(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        # caught before anything is fitted: ALS and label augmentation must not run
        import stylebench.als
        import stylebench.forest

        def not_called(*args, **kwargs):
            raise AssertionError("fitted before the config was checked")

        monkeypatch.setattr(stylebench.als, "fit_als", not_called)
        monkeypatch.setattr(stylebench.forest, "augment_labels", not_called)
        _, config, data_path = workspace
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(
            {**json.loads(config.read_text()), "forest_features_per_split": 99}
        ))
        out = tmp_path / "out"
        argv = [command, "--config", str(wide), "--data", str(data_path), "--out", str(out)]
        if command == "train":
            argv += ["--algo", "forest"]
        assert dispatch(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "forest_features_per_split" in err and "99" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    @pytest.mark.parametrize("missing", [("users",), ("items",), ("users", "items")])
    def test_cb_without_feature_tables_is_data_error(
        self, workspace, tmp_path, capsys, monkeypatch, command, missing
    ):
        # caught before anything is fitted: ALS must not run
        import stylebench.als

        def not_called(*args, **kwargs):
            raise AssertionError("fitted before the feature tables were checked")

        monkeypatch.setattr(stylebench.als, "fit_als", not_called)
        _, config, data_path = workspace
        data = tmp_path / "data"
        data.mkdir()
        for path in data_path.parent.iterdir():  # the manifest holds the boundary
            if path.name.split(".")[1] not in missing:
                (data / path.name).write_bytes(path.read_bytes())
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--data", str(data / "interactions.csv"),
                "--out", str(out)]
        if command == "train":
            argv += ["--algo", "forest"]
        assert dispatch(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"no {' or '.join(side[:-1] for side in missing)} feature table" in err
        assert not out.exists()


class TestInputs:
    """Config keys, data path and boundary: one step shared by every data command."""

    @pytest.mark.parametrize("command, extra", [
        ("synth", ["--out"]),
        ("stats", ["--data"]),
        ("split", ["--data", "--out"]),
    ])
    def test_unknown_config_key_is_data_error(self, workspace, tmp_path, capsys, command, extra):
        _, config, data_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(config.read_text()), "forest_tres": 3}))
        paths = {"--data": str(data_path), "--out": str(tmp_path / "out")}
        argv = [command, "--config", str(bad)]
        for flag in extra:
            argv += [flag, paths[flag]]
        assert dispatch(argv) == EXIT_DATA
        assert "forest_tres" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_string_data_path_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"data": 5}')
        assert dispatch(["stats", "--config", str(config)]) == EXIT_DATA
        assert "'data'" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        '{"boundary": "garbage"}',
        '{"boundary": 5}',
        '["2022-08-28T00:00:00Z"]',
        '{"boundary": ',
    ])
    def test_malformed_manifest_is_data_error(self, workspace, tmp_path, capsys, manifest):
        _, _, data_path = workspace
        data = tmp_path / "interactions.csv"
        data.write_bytes(data_path.read_bytes())
        (tmp_path / "manifest.json").write_text(manifest)
        assert dispatch(["stats", "--data", str(data)]) == EXIT_DATA
        assert f"manifest {tmp_path / 'manifest.json'}" in capsys.readouterr().err

    def test_boundary_flag_then_config_then_manifest(self, workspace, tmp_path, capsys):
        _, config, data_path = workspace
        recorded = json.loads((data_path.parent / "manifest.json").read_text())["boundary"]
        with_boundary = tmp_path / "config.json"
        with_boundary.write_text(json.dumps(
            {**json.loads(config.read_text()), "boundary": "2022-06-01T00:00:00Z"}
        ))
        runs = [
            (["--config", str(config)], recorded),
            (["--config", str(with_boundary)], "2022-06-01T00:00:00Z"),
            (["--config", str(with_boundary), "--boundary", "2022-07-01T00:00:00+02:00"],
             "2022-06-30T22:00:00Z"),
        ]
        for extra, expected in runs:
            assert dispatch(["stats", "--data", str(data_path), *extra]) == EXIT_OK
            assert capsys.readouterr().out.splitlines()[0] == f"boundary: {expected}"
