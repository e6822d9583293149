"""Command-line interface: flows, exit codes, determinism."""

import argparse
import dataclasses
import hashlib
import json
import re

import pytest

from stylebench import cli, harness
from stylebench.als import load_model
from stylebench.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, dispatch
from stylebench.data import format_timestamp, load_events
from stylebench.errors import StylebenchError
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

    def test_config_with_a_byte_order_mark(self, workspace, tmp_path, capsys):
        # as a spreadsheet program or Notepad may save it: the same summary
        # and the same report as the config without the mark
        _, config, data_path = workspace
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        printed, reports = [], []
        for path in (config, marked):
            capsys.readouterr()
            assert dispatch(["stats", "--config", str(path), "--data", str(data_path)]) == EXIT_OK
            printed.append(capsys.readouterr().out)
            out = tmp_path / path.stem
            assert dispatch([
                "evaluate", "--config", str(path), "--data", str(data_path), "--out", str(out),
            ]) == EXIT_OK
            reports.append((out / "report.json").read_bytes())
        assert printed[0] == printed[1]
        assert reports[0] == reports[1]

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

    def test_manifest_supplies_boundary(self, workspace, tmp_path, capsys):
        # stats on the split's train file, with no --boundary, prints the
        # full log's train line: the split manifest records the boundary
        _, config, data_path = workspace
        out = tmp_path / "split"
        assert dispatch([
            "split", "--config", str(config), "--data", str(data_path), "--out", str(out),
        ]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        recorded = json.loads((data_path.parent / "manifest.json").read_text())["boundary"]
        assert manifest["command"] == "split"
        assert manifest["boundary"] == recorded
        assert manifest["files"] == {
            path.name: digest(path) for path in sorted(out.iterdir()) if path.suffix == ".csv"
        }
        capsys.readouterr()
        assert dispatch(["stats", "--config", str(config), "--data", str(data_path)]) == EXIT_OK
        full = capsys.readouterr().out.splitlines()
        assert dispatch(["stats", "--config", str(config), "--data", str(out / "train.csv")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:2] == full[:2]


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

    @pytest.mark.parametrize("algo", ["als", "forest"])
    def test_out_into_a_missing_directory(self, workspace, tmp_path, algo):
        # the model's directory is made once the model is fitted
        _, config, data_path = workspace
        out = tmp_path / "models" / "deeper" / f"{algo}.json"
        rc = dispatch([
            "train", "--config", str(config), "--data", str(data_path),
            "--algo", algo, "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert out.is_file()

    def test_failed_fit_makes_no_out_directory(self, workspace, tmp_path, monkeypatch, capsys):
        # the forest's directory was once made between the ALS fit and the forest fit
        _, config, data_path = workspace

        def fails(*args, **kwargs):
            raise StylebenchError("fit failed")

        for algo, fit in (("als", "fit_factor_model"), ("forest", "fit_cb_forest")):
            monkeypatch.setattr(cli, fit, fails)
            out = tmp_path / algo / "model.json"
            rc = dispatch([
                "train", "--config", str(config), "--data", str(data_path),
                "--algo", algo, "--out", str(out),
            ])
            assert rc == EXIT_INTERNAL
            assert "fit failed" in capsys.readouterr().err
            assert not out.parent.exists()
            monkeypatch.undo()

    def test_manifest_beside_the_model(self, workspace, tmp_path):
        # named after the model, so a model written into the data directory
        # leaves the generator's manifest.json as it was
        _, config, data_path = workspace
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for path in data_path.parent.iterdir():
            (data_dir / path.name).write_bytes(path.read_bytes())
        generated = (data_dir / "manifest.json").read_bytes()
        rc = dispatch([
            "train", "--config", str(config), "--data", str(data_dir / "interactions.csv"),
            "--algo", "als", "--out", str(data_dir / "als.json"),
        ])
        assert rc == EXIT_OK
        assert (data_dir / "manifest.json").read_bytes() == generated
        manifest = json.loads((data_dir / "als.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["algo"] == "als"
        assert manifest["config"]["seed"] == 5
        assert manifest["config"]["boundary"] == json.loads(generated)["boundary"]
        assert manifest["inputs"] == {
            name: digest(data_dir / name)
            for name in ("interactions.csv", "interactions.users.csv", "interactions.items.csv")
        }

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

    def test_out_into_the_data_directory_keeps_the_boundary(self, workspace, tmp_path, capsys):
        # evaluate's manifest replaces the generator's there, so it records
        # the boundary the next stats or evaluate on that data reads
        _, config, data_path = workspace
        for path in data_path.parent.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        recorded = json.loads((tmp_path / "manifest.json").read_text())["boundary"]
        data = tmp_path / "interactions.csv"
        argv = ["--config", str(config), "--data", str(data)]
        assert dispatch(["evaluate", *argv, "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["boundary"] == recorded
        first = (tmp_path / "report.json").read_bytes()
        capsys.readouterr()
        assert dispatch(["stats", *argv]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == f"boundary: {recorded}"
        assert dispatch(["evaluate", *argv, "--out", str(tmp_path / "again")]) == EXIT_OK
        assert (tmp_path / "again" / "report.json").read_bytes() == first


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


# members of each report row in report_payload: 3 sale, 2 view and 2 new users
ROW_USERS = {"sale_users": 3, "view_users": 2, "new_users": 2, "average": 7}


def report_payload(algorithms: list[str]) -> dict:
    """A valid report of ``algorithms`` over 7 test users (ROW_USERS), with
    every cell filled in but CF's null new-user and pooled ones."""

    def cells(metric, m):
        return {
            "ndcg": {"value": 0.1, "pct_over_random": 100.0, "random_baseline": 0.05,
                     "n_users": m, "n_excluded": 0},
            "ad": {"point": 2.0, "sd": 0.5, "ci_low": 1.5, "ci_high": 2.5,
                   "n_pairs": min(m, m * (m - 1) // 2)},
            "rp": {"point": 0.3, "sd": 0.1, "ci_low": 0.2, "ci_high": 0.4, "n_users": m},
        }[metric]

    segments = {row: {"users": n, "pct": 100 * n / 7} for row, n in ROW_USERS.items()}
    del segments["average"]
    return {
        "config": {"algorithms": algorithms, "k": 10, "seed": 0, "boundary": "b"},
        "dataset": {"test": {"users": 7, "segments": segments}},
        "coverage": {a: {"covered": 5 if a == "CF" else 7, "uncovered": 2 if a == "CF" else 0}
                     for a in algorithms},
        "short_head": {"short_head_fraction": 0.5, "n_short_head_items": 1,
                       "n_items": 2, "total_sales": 3},
        "cells": {
            metric: {
                row: {a: None if a == "CF" and row in ("new_users", "average") else cells(metric, m)
                      for a in algorithms}
                for row, m in ROW_USERS.items()
            }
            for metric in ("ndcg", "ad", "rp")
        },
    }


def _set(path: str, value):
    """An edit of a report that sets its entry at dotted ``path`` to ``value``."""
    def edit(payload):
        *parents, key = path.split(".")
        for part in parents:
            payload = payload[part]
        payload[key] = value
    return edit


# case id -> (edit of report_payload(["MP", "CF", "CB"]), the fault the
# error names after "report FILE"); each edit breaks one rule of the contract
CONTRACT_EDITS = {
    "ndcg_value_above_1": (_set("cells.ndcg.average.MP.value", 7.0),
                           "cell ndcg/average/MP: value = 7.0 is outside [0.0, 1.0]"),
    "random_baseline_above_1": (_set("cells.ndcg.sale_users.CB.random_baseline", 1.5),
                                "cell ndcg/sale_users/CB: random_baseline = 1.5 is outside"),
    "ad_ci_high_above_2k": (_set("cells.ad.view_users.CF.ci_high", 21.0),
                            "cell ad/view_users/CF: ci_high = 21.0 is outside [0.0, 20.0]"),
    "rp_sd_below_0": (_set("cells.rp.sale_users.MP.sd", -0.1),
                      "cell rp/sale_users/MP: sd = -0.1 is outside [0.0, inf]"),
    "coverage_sum": (_set("coverage.MP.covered", 8),
                     "coverage MP: 8 covered + 0 uncovered, but MP covers 7 of 7 test users"),
    "coverage_negative": (_set("coverage.CB.covered", -3), "has no valid 'coverage.CB.covered'"),
    "coverage_extra_algorithm": (_set("coverage.XX", {"covered": 7, "uncovered": 0}),
                                 "has no valid 'coverage'"),
    "cb_uncovered": (_set("coverage.CB", {"covered": 6, "uncovered": 1}),
                     "coverage CB: 6 covered + 1 uncovered, but CB covers 7 of 7 test users"),
    "mp_uncovered": (_set("coverage.MP", {"covered": 6, "uncovered": 1}),
                     "coverage MP: 6 covered + 1 uncovered, but MP covers 7 of 7 test users"),
    "cf_uncovered_not_new_users": (
        _set("coverage.CF", {"covered": 6, "uncovered": 1}),
        "coverage CF: 6 covered + 1 uncovered, but CF covers 5 of 7 test users",
    ),
    "cf_new_user_cell": (
        _set("cells.ad.new_users.CF", {"point": 2.0, "sd": 0.5, "ci_low": 1.5, "ci_high": 2.5,
                                       "n_pairs": 1}),
        "cell ad/new_users/CF is not null, but CF cannot cover new users",
    ),
    "cf_average_cell": (_set("cells.ndcg.average.CF", {}),
                        "cell ndcg/average/CF is not null, but CF cannot cover new users"),
    "ndcg_count": (_set("cells.ndcg.view_users.MP.n_excluded", 1),
                   "cell ndcg/view_users/MP: n_users + n_excluded = 3, not the 2 "),
    "rp_count": (_set("cells.rp.average.CB.n_users", 99999),
                 "cell rp/average/CB: n_users = 99999, not the 7 "),
    "ad_count": (_set("cells.ad.sale_users.MP.n_pairs", 2),
                 "cell ad/sale_users/MP: n_pairs = 2, not the 3 "),
    "count_not_an_int": (_set("cells.rp.sale_users.MP.n_users", 3.0),
                         "has no valid 'cells.rp.sale_users.MP.n_users'"),
    "null_ad_cell": (_set("cells.ad.view_users.MP", None),
                     "cell ad/view_users/MP is null, but its users can be graded"),
    "null_rp_cell": (_set("cells.rp.new_users.CB", None),
                     "cell rp/new_users/CB is null, but its users can be graded"),
    "unknown_algorithm": (_set("config.algorithms", ["MP", "CF", "CB", "XX"]),
                          "has no valid 'config.algorithms'"),
    "repeated_algorithm": (_set("config.algorithms", ["MP", "CF", "CB", "MP"]),
                           "has no valid 'config.algorithms'"),
    "k_below_1": (_set("config.k", 0), "has no valid 'config.k'"),
    "segments_sum": (_set("dataset.test.segments.new_users.users", 3),
                     "has no valid 'dataset.test.segments'"),
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

    def test_never_writes_over_the_report_it_reads(self, tmp_path, capsys):
        # with no --out the files go beside the report: report.json there is
        # the input itself, whatever its spelling
        report = tmp_path / "report.json"
        report.write_text(json.dumps(report_payload(["MP"]), indent=4))
        before = report.read_bytes()
        for argv in (
            ["--format", "json"],
            ["--format", "csv,json", "--out", f"{tmp_path}/../{tmp_path.name}"],
        ):
            assert dispatch(["report", "--report", str(report), *argv]) == EXIT_USAGE
            assert "would write over the input file" in capsys.readouterr().err
            assert report.read_bytes() == before
            assert sorted(tmp_path.iterdir()) == [report]
        assert dispatch(["report", "--report", str(report), "--format", "csv,markdown"]) == EXIT_OK
        assert report.read_bytes() == before
        assert (tmp_path / "report.md").exists()

    def test_report_missing_a_row_is_data_error(self, tmp_path, capsys):
        payload = report_payload(["MP"])
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
        payload = report_payload(["MP", "CF"])
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


    @pytest.mark.parametrize("case", list(CONTRACT_EDITS))
    def test_report_breaking_the_contract_is_data_error(self, tmp_path, capsys, case):
        edit, fault = CONTRACT_EDITS[case]
        payload = report_payload(["MP", "CF", "CB"])
        harness.check_payload(payload)
        edit(payload)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload))
        rc = dispatch(["report", "--report", str(report), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert f"report {report} {fault}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings", [
        {}, {"exclude_purchased": True, "k": 70}, {"grading": "binary"}, {"grading": "sales_only"},
    ], ids=["plain", "exclude_purchased_k70", "binary", "sales_only"])
    def test_evaluation_reports_keep_the_contract(self, workspace, settings):
        _, config, data_path = workspace
        raw = {k: v for k, v in json.loads(config.read_text()).items() if k in harness.CONFIG_KEYS}
        boundary = json.loads((data_path.parent / "manifest.json").read_text())["boundary"]
        cfg = harness.EvalConfig.from_dict({**raw, **settings, "boundary": boundary})
        report = harness.run_evaluation(cfg, load_events(data_path))
        harness.check_payload(report.payload)
        assert harness.EvaluationReport.from_json(report.to_json()).payload == report.payload


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

    def test_commands_need_no_scipy(self, workspace, tmp_path):
        # scipy is a test dependency only: with every scipy import failing,
        # synth, train --algo als and evaluate write the files a run with
        # scipy importable writes
        import os
        import subprocess
        import sys
        from pathlib import Path

        _, config, data_path = workspace
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        blocked = ('import sys; sys.modules["scipy"] = None; '
                   'from stylebench.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))')
        common = ["--config", str(config)]
        with_data = [*common, "--data", str(data_path)]
        runs = {
            "synth": ["synth", *common],
            "als.json": ["train", *with_data, "--algo", "als"],
            "run": ["evaluate", *with_data],
        }
        (tmp_path / "blocked").mkdir()
        (tmp_path / "plain").mkdir()
        for name, argv in runs.items():
            proc = subprocess.run(
                [sys.executable, "-c", blocked, *argv, "--out", str(tmp_path / "blocked" / name)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            if name != "synth":  # the workspace's data is the plain synth run
                assert dispatch([*argv, "--out", str(tmp_path / "plain" / name)]) == EXIT_OK
        plain = {
            **{f"synth/{p.name}": p for p in data_path.parent.iterdir()},
            "als.json": tmp_path / "plain" / "als.json",
            "run/report.json": tmp_path / "plain" / "run" / "report.json",
            "run/report.md": tmp_path / "plain" / "run" / "report.md",
        }
        assert len(plain) == 7
        for name, path in plain.items():
            assert (tmp_path / "blocked" / name).read_bytes() == path.read_bytes(), name


def _argv_doing_no_work(workspace, tmp_path, monkeypatch, command):
    """``command``'s arguments but ``--out``, with loading, generating and
    rendering patched to fail: an ``--out`` check must come first."""
    _, config, data_path = workspace

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("load_events", "generate_dataset", "render_report"):
        monkeypatch.setattr(cli, name, no_work)
    argv = {
        "synth": ["synth"],
        "split": ["split", "--data", str(data_path)],
        "train": ["train", "--data", str(data_path), "--algo", "forest"],
        "evaluate": ["evaluate", "--data", str(data_path)],
        "report": ["report", "--report", str(tmp_path / "report.json")],
    }[command]
    return argv if command == "report" else [*argv, "--config", str(config)]


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

    @pytest.mark.parametrize("formats", ["", " , "])
    def test_empty_report_format_list_is_usage_error(self, tmp_path, capsys, formats):
        # refused while the flags are parsed, before the report is read
        report = tmp_path / "report.json"
        report.write_text("{}")
        rc = dispatch([
            "report", "--report", str(report), "--out", str(tmp_path / "out"),
            "--format", formats,
        ])
        assert rc == EXIT_USAGE
        assert "no report format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lone_surrogate_id_is_data_error_for_split(self, tmp_path, capsys):
        # json.loads decodes the escape to a str no UTF-8 file can hold
        data = tmp_path / "events.jsonl"
        data.write_text(
            '{"user_id": "u1", "item_id": "i1", "kind": "view", '
            '"timestamp": "2022-01-01T00:00:00Z", "quantity": 1}\n'
            '{"user_id": "u\\ud800", "item_id": "i1", "kind": "view", '
            '"timestamp": "2022-02-01T00:00:00Z", "quantity": 1}\n',
            encoding="utf-8",
        )
        out = tmp_path / "split"
        rc = dispatch(["split", "--data", str(data), "--boundary", "2022-01-15T00:00:00Z",
                       "--out", str(out)])
        assert rc == EXIT_DATA
        assert f"{data}:2: user_id 'u\\ud800' holds a lone surrogate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{", b"[]", b"{}", b'{"config": "\xff"}'])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, content):
        report = tmp_path / "report.json"
        report.write_bytes(content)
        rc = dispatch(["report", "--report", str(report), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert f"report {report}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader", ["data", "config", "report", "manifest"])
    def test_nesting_past_the_parser_depth_is_data_error(
        self, workspace, tmp_path, capsys, reader
    ):
        # json.loads raises RecursionError, not a ValueError, on these files
        _, config, data_path = workspace
        deep = "[" * 100_000 + "\n"
        for name in ("deep.json", "deep.jsonl"):
            (tmp_path / name).write_text(deep, encoding="utf-8")
        data = tmp_path / "interactions.csv"
        data.write_bytes(data_path.read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(deep if reader == "manifest" else '{"boundary": "2022-08-29T00:00:00Z"}')
        deep_json, out = tmp_path / "deep.json", tmp_path / "out"
        argv, named = {
            "data": (["evaluate", "--config", str(config), "--data", str(tmp_path / "deep.jsonl")],
                     f"{tmp_path / 'deep.jsonl'}:1: JSON nested too deeply"),
            "config": (["evaluate", "--config", str(deep_json), "--data", str(data)],
                       f"config {deep_json} is nested too deeply"),
            "report": (["report", "--report", str(deep_json)],
                       f"report {deep_json} is nested too deeply"),
            "manifest": (["evaluate", "--config", str(config), "--data", str(data)],
                         f"manifest {manifest} is nested too deeply"),
        }[reader]
        assert dispatch([*argv, "--out", str(out)]) == EXIT_DATA
        assert named in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_segment_target_is_data_error(self, tmp_path, capsys):
        # the three targets sum to 1, but a negative count made the role
        # slices overlap: the log came out 30% new, 0% view and 70% sale users
        config = tmp_path / "negative.json"
        config.write_text(json.dumps({
            "synth_users": 400, "synth_items": 60, "synth_sparsity": 0.85,
            "synth_segment_new": 0.5, "synth_segment_view": -0.2, "synth_segment_sale": 0.7,
        }))
        rc = dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert "segment_targets must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_directory_is_data_error(self, tmp_path, capsys):
        rc = dispatch(["report", "--report", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert f"report {tmp_path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "split", "train", "evaluate", "report"])
    def test_out_of_the_wrong_kind_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        out = tmp_path / "out"
        if command == "train":
            out.mkdir()
        else:
            out.write_text("")
        argv = _argv_doing_no_work(workspace, tmp_path, monkeypatch, command)
        assert dispatch([*argv, "--out", str(out)]) == EXIT_USAGE
        assert f"--out {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "split", "train", "evaluate", "report"])
    def test_out_under_a_file_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" / ("model.json" if command == "train" else "out")
        argv = _argv_doing_no_work(workspace, tmp_path, monkeypatch, command)
        assert dispatch([*argv, "--out", str(out)]) == EXIT_USAGE
        assert f"--out {out}: {blocker} is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out, target", [
        ("train", "data/interactions.csv", "data/interactions.csv"),
        ("train", "data/interactions.users.csv", "data/interactions.users.csv"),
        ("train", "config.json", "config.json"),
        ("split", "split", "split/train.csv"),
    ])
    def test_out_over_an_input_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, command, out, target
    ):
        # such a run once exited 0 and left model JSON (or a re-split)
        # where the data or config had been
        _, config, data_path = workspace
        (tmp_path / "config.json").write_bytes(config.read_bytes())
        (tmp_path / "data").mkdir()
        for path in data_path.parent.iterdir():
            (tmp_path / "data" / path.name).write_bytes(path.read_bytes())
        data = tmp_path / "data" / "interactions.csv"
        if command == "split":
            assert dispatch(["split", "--data", str(data), "--out", str(tmp_path / "split")]) == EXIT_OK
            data = tmp_path / "split" / "train.csv"
        before = (tmp_path / target).read_bytes()
        monkeypatch.setattr(cli, "load_events", lambda path: pytest.fail("the data was read"))
        capsys.readouterr()
        argv = [command, "--config", str(tmp_path / "config.json"), "--data", str(data)]
        if command == "train":
            argv += ["--algo", "als"]
        assert dispatch([*argv, "--out", str(tmp_path / out)]) == EXIT_USAGE
        assert f"would write over the input file {tmp_path / target}" in capsys.readouterr().err
        assert (tmp_path / target).read_bytes() == before

    @pytest.mark.parametrize("reader", ["config", "report", "manifest"])
    def test_repeated_key_is_data_error(self, workspace, tmp_path, capsys, reader):
        # json.loads would keep the last value: the config would run with k = 7
        _, config, data_path = workspace
        data = tmp_path / "interactions.csv"
        data.write_bytes(data_path.read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"boundary": "2022-08-29T00:00:00Z"}')
        repeated, out = tmp_path / "repeated.json", tmp_path / "out"
        if reader == "config":
            repeated.write_text(config.read_text()[:-1] + ', "k": 5, "k": 7}')
            argv, key = ["evaluate", "--config", str(repeated), "--data", str(data)], "k"
        elif reader == "report":
            repeated.write_text('{"config": {"k": 10}, "cells": {"ndcg": {"a": 1, "a": 2}}}')
            argv, key = ["report", "--report", str(repeated)], "a"
        else:
            manifest.write_text('{"boundary": "2022-08-29T00:00:00Z", '
                                '"files": {"x": {"b": 1, "b": 2}}}')
            argv, key = ["evaluate", "--config", str(config), "--data", str(data)], "b"
            repeated = manifest
        assert dispatch([*argv, "--out", str(out)]) == EXIT_DATA
        assert f"{reader} {repeated}: key {key!r} appears twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config", "infeasible"])
    def test_failed_synth_leaves_no_out(self, tmp_path, capsys, where):
        shape = {"synth_users": 120, "synth_items": 30, "synth_sparsity": 0.85}
        if where == "config":
            shape["seed"] = -5
        elif where == "infeasible":
            shape["synth_sparsity"] = 0.999
        config = tmp_path / "config.json"
        config.write_text(json.dumps(shape))
        out = tmp_path / "out"
        argv = ["synth", "--config", str(config), "--out", str(out)]
        if where == "flag":
            argv += ["--seed", "-5"]
        assert dispatch(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert ("cannot keep" if where == "infeasible" else "seed must be non-negative") in err
        assert not out.exists()

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


    @pytest.mark.parametrize("command", ["evaluate", "train"])
    @pytest.mark.parametrize("side", ["users", "items"])
    def test_cb_without_a_feature_row_is_data_error(
        self, workspace, tmp_path, capsys, monkeypatch, command, side
    ):
        # a user, or an item with a training event, lacking a feature row is
        # caught before anything is fitted: ALS must not run
        import stylebench.als

        def not_called(*args, **kwargs):
            raise AssertionError("fitted before the feature rows were checked")

        monkeypatch.setattr(stylebench.als, "fit_als", not_called)
        _, config, data_path = workspace
        data = tmp_path / "data"
        data.mkdir()
        for path in data_path.parent.iterdir():  # the manifest holds the boundary
            (data / path.name).write_bytes(path.read_bytes())
        # the second line is the first id's row: u00000 is a user of the
        # data, and i0000 an item sold or viewed in training
        table = data / f"interactions.{side}.csv"
        lines = table.read_text().splitlines(keepends=True)
        absent = lines[1].split(",")[0]
        table.write_text("".join(lines[:1] + lines[2:]))
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--data", str(data / "interactions.csv"),
                "--out", str(out)]
        if command == "train":
            argv += ["--algo", "forest"]
        assert dispatch(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{side[:-1]} {absent!r} has none" in err
        assert "stage" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_cb_without_feature_columns_is_data_error(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        # sidecars cut to their id column: ALS once ran, and then the forest
        # fit failed with a traceback; MP and CF still run on such data
        import stylebench.als

        _, config, data_path = workspace
        data = tmp_path / "data"
        data.mkdir()
        for path in data_path.parent.iterdir():  # the manifest holds the boundary
            text = path.read_text()
            if path.name.split(".")[1] in ("users", "items"):
                text = "".join(line.split(",")[0] + "\n" for line in text.splitlines())
            (data / path.name).write_text(text)
        events = str(data / "interactions.csv")
        if command == "evaluate":
            mp_cf = tmp_path / "mp_cf.json"
            mp_cf.write_text(json.dumps({**json.loads(config.read_text()), "algorithms": "MP,CF"}))
            assert dispatch([
                "evaluate", "--config", str(mp_cf), "--data", events,
                "--out", str(tmp_path / "mp_cf"),
            ]) == EXIT_OK

        def not_called(*args, **kwargs):
            raise AssertionError("fitted before the feature columns were checked")

        monkeypatch.setattr(stylebench.als, "fit_als", not_called)
        out = tmp_path / "out" / ("f.json" if command == "train" else "run")
        argv = [command, "--config", str(config), "--data", events, "--out", str(out)]
        if command == "train":
            argv += ["--algo", "forest"]
        assert dispatch(argv) == EXIT_DATA
        assert "hold only ids" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("algorithms", ["MP,MP", ""])
    def test_empty_or_repeated_algorithms_is_data_error(
        self, workspace, tmp_path, capsys, algorithms
    ):
        _, config, data_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(config.read_text()), "algorithms": algorithms}))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(bad), "--data", str(data_path), "--out", str(out)]
        assert dispatch(argv) == EXIT_DATA
        assert "'algorithms'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["als_alpha", "als_regularization", "als_sale_weight"])
    @pytest.mark.parametrize("value", [1e200, 1e308])
    def test_extreme_als_setting_is_no_traceback(self, workspace, tmp_path, capsys, key, value):
        # a fit either succeeds or names the row whose subproblem failed
        _, config, data_path = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
        out = tmp_path / "out"
        rc = dispatch(["evaluate", "--config", str(cfg), "--data", str(data_path), "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_INTERNAL)
        if rc == EXIT_INTERNAL:
            assert re.search(r"stage fit_als: .*subproblem at row \d+ ", capsys.readouterr().err)
            assert not out.exists()

    def test_invalid_report_is_internal_error(self, workspace, tmp_path, capsys, monkeypatch):
        _, config, data_path = workspace
        real = harness.relative_popularity
        monkeypatch.setattr(
            harness, "relative_popularity",
            lambda *a, **kw: dataclasses.replace(real(*a, **kw), point=-1.0),
        )
        out = tmp_path / "out"
        rc = dispatch(["evaluate", "--config", str(config), "--data", str(data_path), "--out", str(out)])
        assert rc == EXIT_INTERNAL
        assert "report cell rp/sale_users/MP: point = -1.0" in capsys.readouterr().err
        assert not out.exists()


# value flag -> (the config key it sets, the file's value, the flag's
# value); "{tmp}" is the test's directory and "{data}" the fixture's events
FLAG_KEYS = {
    "--users": ("synth_users", 150, "120"),
    "--items": ("synth_items", 40, "30"),
    "--skew": ("synth_skew", 2.0, "0.5"),
    "--seed": ("seed", 3, "7"),
    "--k": ("k", 5, "3"),
    "--threads": ("threads", 1, "2"),
    "--grading": ("grading", "binary", "sales_only"),
    "--data": ("data", "{tmp}/missing.csv", "{data}"),
    "--out": ("out", "{tmp}/from_file", "{tmp}/from_flag"),
    "--boundary": ("boundary", "2022-06-01T00:00:00Z", "2022-07-01T00:00:00+02:00"),
}


class TestInputs:
    """Settings, data path and boundary: one step shared by every data command."""

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

    def test_every_value_flag_is_a_config_key(self):
        # a flag stored under any other name would never reach the settings
        parser = cli._build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        for name, command in commands.items():
            if name != "report":
                dests = {a.dest for a in command._actions} - {"help", "config", "algo"}
                assert dests <= cli._CONFIG_KEYS, name

    @pytest.mark.parametrize("flag", list(FLAG_KEYS))
    def test_flag_overrides_its_config_key(self, workspace, tmp_path, capsys, flag):
        _, config, data_path = workspace
        key, in_file, given = (
            v.format(tmp=tmp_path, data=data_path) if isinstance(v, str) else v
            for v in FLAG_KEYS[flag]
        )
        command = ("stats" if key in ("data", "boundary")
                   else "evaluate" if key in ("k", "threads", "grading") else "synth")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {**json.loads(config.read_text()), "algorithms": "MP", key: in_file}
        ))
        argv = [command, "--config", str(cfg), flag, given]
        if command != "stats" and key != "out":
            argv += ["--out", str(tmp_path / "out")]
        if command != "synth" and key != "data":
            argv += ["--data", str(data_path)]
        args = cli._build_parser().parse_args(argv)
        value = getattr(args, key)
        assert cli._settings(args)[key] == value != in_file
        assert dispatch(argv) == EXIT_OK  # a missing --data file would fail stats
        if key == "boundary":
            assert capsys.readouterr().out.startswith(f"boundary: {format_timestamp(value)}\n")
        elif key == "out":
            assert (tmp_path / "from_flag" / "manifest.json").exists()
            assert not (tmp_path / "from_file").exists()
        elif command == "synth":
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["synth_config"][cli._SYNTH_KEYS.get(key, key)] == value
        elif command == "evaluate":
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["config"][key] == value

    @pytest.mark.parametrize("skew", ["nan", "inf"])
    def test_non_finite_skew_flag_is_data_error(self, tmp_path, capsys, skew):
        # --skew nan once wrote a log with every event on one item
        out = tmp_path / "nanskew"
        rc = dispatch([
            "synth", "--users", "120", "--items", "30", "--skew", skew, "--seed", "3",
            "--out", str(out),
        ])
        assert rc == EXIT_DATA
        assert f"config key 'synth_skew' must be finite float, got {skew}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "split"])
    def test_seed_flag_is_usage_error(self, workspace, tmp_path, capsys, command):
        # neither command reads a seed
        _, config, data_path = workspace
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--data", str(data_path), "--seed", "5"]
        if command == "split":
            argv += ["--out", str(out)]
        assert dispatch(argv) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
