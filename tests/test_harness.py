"""Pipeline harness: report grid invariants, short-head curve, rendering."""

import dataclasses
import json

import numpy as np
import pytest

from stylebench import harness, recommend
from stylebench.data import PopularityTable, temporal_split
from stylebench.errors import InvalidReport, ZeroSales
from stylebench.harness import (
    EvalConfig,
    EvaluationReport,
    check_report,
    derive_seed,
    format_cell,
    render_report,
    run_evaluation,
    short_head_curve,
)
from stylebench.synth import SynthConfig, generate_dataset


def small_eval_setup(seed=5):
    synth = SynthConfig(
        n_users=400, n_items=60, target_sparsity=0.85, seed=seed
    )
    data = generate_dataset(synth)
    cfg = EvalConfig.from_dict(
        {
            "boundary": "2022-08-28T00:00:00Z",
            "seed": seed,
            "als_factors": 8,
            "als_iterations": 6,
            "forest_trees": 12,
            "forest_negatives_per_user": 10,
        }
    )
    return cfg, data


@pytest.fixture(scope="module")
def small_report():
    cfg, data = small_eval_setup()
    return cfg, run_evaluation(cfg, data)


class TestShortHead:
    def pop(self, quantities):
        ranking = tuple(sorted(quantities, key=lambda i: (-quantities[i], i)))
        return PopularityTable(quantities=quantities, ranking=ranking)

    def test_single_dominant_item(self):
        curve = short_head_curve(self.pop({"a": 10, "b": 1, "c": 1}))
        assert curve.n_short_head_items == 1

    def test_uniform_hundred_items(self):
        curve = short_head_curve(
            self.pop({f"i{n:03d}": 7 for n in range(100)})
        )
        assert curve.n_short_head_items == 34
        assert curve.short_head_fraction == pytest.approx(0.34)

    def test_cumulative_share_monotone_ending_at_one(self):
        curve = short_head_curve(self.pop({"a": 5, "b": 3, "c": 1, "d": 0}))
        shares = curve.cumulative_share
        assert np.all(np.diff(shares) >= 0)
        assert shares[-1] == pytest.approx(1.0)

    def test_zero_sales(self):
        with pytest.raises(ZeroSales):
            short_head_curve(self.pop({"a": 0}))


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "ad", "sale_users", "MP") == derive_seed(
            7, "ad", "sale_users", "MP"
        )
        assert derive_seed(7, "ad", "sale_users", "MP") != derive_seed(
            7, "ad", "sale_users", "CF"
        )
        assert derive_seed(7, "als") != derive_seed(8, "als")


class TestReportGrid:
    def test_mp_rows_exact(self, small_report):
        _, report = small_report
        for segment in ("sale_users", "view_users", "new_users", "average"):
            ad = report.cell("ad", segment, "MP")
            assert ad["point"] == 0.0 and ad["sd"] == 0.0
            assert (ad["ci_low"], ad["ci_high"]) == (0.0, 0.0)
            rp = report.cell("rp", segment, "MP")
            assert rp["point"] == 1.0 and rp["sd"] == 0.0

    def test_cf_unavailable_for_new_and_average(self, small_report):
        _, report = small_report
        for metric in ("ndcg", "ad", "rp"):
            assert report.cell(metric, "new_users", "CF") is None
            assert report.cell(metric, "average", "CF") is None

    def test_cf_present_for_history_segments(self, small_report):
        _, report = small_report
        assert report.cell("ndcg", "sale_users", "CF") is not None
        assert report.cell("ad", "view_users", "CF") is not None

    def test_cb_covers_everyone(self, small_report):
        _, report = small_report
        coverage = report.payload["coverage"]
        total = report.payload["dataset"]["test"]["users"]
        assert coverage["CB"]["covered"] == total
        assert coverage["MP"]["covered"] == total
        assert coverage["CF"]["covered"] + coverage["CF"]["uncovered"] == total

    def test_one_user_per_cb_batch_changes_no_byte(self, small_report, monkeypatch):
        cfg, report = small_report
        _, data = small_eval_setup()
        # a budget of one candidate row: each CB block is one user, and the
        # blocks come in the users' feature order, not in test-row order
        candidates = temporal_split(data, cfg.boundary).train.item_ids
        monkeypatch.setattr(recommend, "_PAIR_BUDGET", len(candidates))
        score, batches = harness.score_cb_users, []

        def recorded(*args):
            for rows, block in score(*args):
                batches.append(rows)
                yield rows, block

        monkeypatch.setattr(harness, "score_cb_users", recorded)
        assert run_evaluation(cfg, data).to_json() == report.to_json()
        assert all(len(rows) == 1 for rows in batches)
        order = np.concatenate(batches)
        assert sorted(order) == list(range(len(order))) and np.any(np.diff(order) < 0)

    def test_segment_counts_partition_test_users(self, small_report):
        _, report = small_report
        segments = report.payload["dataset"]["test"]["segments"]
        total = report.payload["dataset"]["test"]["users"]
        assert sum(s["users"] for s in segments.values()) == total

    def test_ndcg_cells_track_baseline(self, small_report):
        _, report = small_report
        for segment in ("sale_users", "view_users", "new_users", "average"):
            cell = report.cell("ndcg", segment, "MP")
            expected = 100.0 * (cell["value"] - cell["random_baseline"]) / cell["random_baseline"]
            assert cell["pct_over_random"] == pytest.approx(expected)

    def test_determinism_byte_identical(self):
        cfg, data = small_eval_setup(seed=11)
        a = run_evaluation(cfg, data)
        b = run_evaluation(cfg, data)
        assert a.to_json() == b.to_json()

    def test_thread_count_irrelevant(self):
        cfg, data = small_eval_setup(seed=13)
        import dataclasses

        two = dataclasses.replace(cfg, threads=2)
        assert run_evaluation(cfg, data).to_json() == run_evaluation(two, data).to_json()

    def test_mp_cf_only_run_without_feature_tables(self):
        import dataclasses

        cfg, data = small_eval_setup(seed=17)
        bare = dataclasses.replace(data, user_features=None, item_features=None)
        cfg = dataclasses.replace(cfg, algorithms=("MP", "CF"))
        report = run_evaluation(cfg, bare)
        assert set(report.payload["coverage"]) == {"MP", "CF"}
        assert report.cell("ndcg", "sale_users", "MP") is not None
        assert "CB" not in report.payload["cells"]["ndcg"]["average"]

    def test_purchased_mask_drops_items_without_mutating_scores(self):
        from stylebench.recommend import rank_users

        vec = np.array([[5.0, 3.0, 1.0]])
        [(_, top, _)] = rank_users([(np.arange(1), vec)], 2, (np.array([0, 1]), np.array([0])))
        assert tuple(np.array(["A", "B", "C"])[top[0]]) == ("B", "C")
        assert vec[0, 0] == 5.0

    def test_exclude_purchased_changes_buyers_cells(self):
        import dataclasses
        from datetime import datetime, timezone

        from stylebench.data import Dataset, InteractionEvent, Kind

        def at(day):
            return datetime(2022, 1, 1 + day, tzinfo=timezone.utc)

        # u1 buys the runaway bestseller in training, then again in test;
        # masking it must change u1's MP accuracy
        events = [
            InteractionEvent("u1", "A", Kind.SALE, at(0), 5),
            InteractionEvent("u2", "B", Kind.SALE, at(1), 1),
            InteractionEvent("u2", "A", Kind.VIEW, at(2), 1),
            InteractionEvent("u1", "C", Kind.VIEW, at(3), 1),
            InteractionEvent("u1", "A", Kind.SALE, at(20), 1),
            InteractionEvent("u2", "B", Kind.VIEW, at(21), 1),
        ]
        data = Dataset.from_events(events)
        base = EvalConfig.from_dict(
            {"boundary": "2022-01-11T00:00:00Z", "k": 2, "algorithms": ["MP"]}
        )
        off = run_evaluation(base, data)
        on = run_evaluation(
            dataclasses.replace(base, exclude_purchased=True), data
        )
        ndcg_off = off.cell("ndcg", "sale_users", "MP")["value"]
        ndcg_on = on.cell("ndcg", "sale_users", "MP")["value"]
        assert ndcg_off > ndcg_on

    def test_exclude_purchased_leaves_new_users_unmasked(self, monkeypatch):
        import dataclasses
        from datetime import datetime, timezone

        from stylebench import harness
        from stylebench.data import Dataset, InteractionEvent, Kind

        def at(day):
            return datetime(2022, 1, 1 + day, tzinfo=timezone.utc)

        # u1 bought the bestseller A in training; u3, new in the test
        # period, has no training row, so no purchase of its own to mask
        events = [
            InteractionEvent("u1", "A", Kind.SALE, at(0), 5),
            InteractionEvent("u2", "B", Kind.SALE, at(1), 1),
            InteractionEvent("u2", "C", Kind.VIEW, at(2), 1),
            InteractionEvent("u1", "B", Kind.SALE, at(20), 1),
            InteractionEvent("u3", "A", Kind.VIEW, at(21), 1),
        ]
        data = Dataset.from_events(events)
        base = EvalConfig.from_dict(
            {"boundary": "2022-01-11T00:00:00Z", "k": 2, "algorithms": ["MP"]}
        )
        lists = {}
        rp = harness.relative_popularity

        def recorded(top, *args, seed, **kwargs):
            lists[seed] = top.tolist()
            return rp(top, *args, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "relative_popularity", recorded)
        reports = {}
        for exclude in (False, True):
            lists.clear()
            cfg = dataclasses.replace(base, exclude_purchased=exclude)
            reports[exclude] = run_evaluation(cfg, data)
            reports[exclude, "lists"] = {
                row: lists[derive_seed(cfg.seed, "rp", row, "MP")]
                for row in ("sale_users", "new_users", "average")
            }
        on, off = reports[True, "lists"], reports[False, "lists"]
        assert reports[True].payload["coverage"]["MP"] == {"covered": 2, "uncovered": 0}
        assert off["new_users"] == on["new_users"] == [["A", "B"]]
        assert on["sale_users"] == [["B", "C"]]
        # the average row holds both users in id order
        assert on["average"] == [["B", "C"], ["A", "B"]]
        assert reports[True].cell("ndcg", "new_users", "MP") == reports[False].cell(
            "ndcg", "new_users", "MP"
        )

    def test_errors_name_their_stage(self):
        import dataclasses
        from datetime import datetime, timezone

        from stylebench.errors import DataError

        cfg, data = small_eval_setup(seed=19)
        early = dataclasses.replace(
            cfg, boundary=datetime(2021, 1, 1, tzinfo=timezone.utc)
        )
        with pytest.raises(DataError) as exc:
            run_evaluation(early, data)
        assert "temporal_split" in str(exc.value)

    def test_unknown_render_format_rejected(self, small_report, tmp_path):
        _, report = small_report
        with pytest.raises(ValueError):
            render_report(report, tmp_path, formats=("pdf",))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig.from_dict({"k": 0})
        with pytest.raises(ValueError):
            EvalConfig.from_dict({"grading": "stars"})
        with pytest.raises(ValueError):
            EvalConfig.from_dict({"algorithms": "MP,XX"})


class TestReportPostConditions:
    """run_evaluation checks its report before returning it."""

    @pytest.mark.parametrize("metric, name, field, value", [
        ("ndcg", "micro_average_ndcg", "value", 1.5),
        ("ndcg", "micro_average_ndcg", "value", float("nan")),
        ("ad", "avg_distinct_sampled", "ci_high", 21.0),  # above 2k for k = 10
        ("ad", "avg_distinct_sampled", "point", -1.0),
        ("rp", "relative_popularity", "ci_low", -0.5),
        ("rp", "relative_popularity", "point", float("inf")),
    ])
    def test_out_of_range_metric_names_the_cell(self, monkeypatch, metric, name, field, value):
        cfg, data = small_eval_setup()
        cfg = dataclasses.replace(cfg, algorithms=("MP",), bootstrap_resamples=20)
        real = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *a, **kw: dataclasses.replace(real(*a, **kw), **{field: value})
        )
        with pytest.raises(InvalidReport, match=rf"report cell {metric}/sale_users/MP: {field} = "):
            run_evaluation(cfg, data)

    def test_null_cell_only_without_users_to_grade(self):
        # a row with no members may be null (tiny data can leave a segment
        # empty); one with a gradable member may not
        cells = {m: {row: {"CB": None} for row in harness.SEGMENT_ROWS} for m in harness.METRICS}
        covered = {"CB": np.array([True, True])}
        in_row = {row: np.zeros(2, dtype=bool) for row in harness.SEGMENT_ROWS}
        check_report(cells, covered, {"CB": np.zeros(2)}, in_row)
        in_row["sale_users"] = np.array([True, False])
        with pytest.raises(InvalidReport, match="report cell ndcg/sale_users/CB is null"):
            check_report(cells, covered, {"CB": np.zeros(2)}, in_row)

    def test_coverage(self):
        cells = {m: {row: {} for row in harness.SEGMENT_ROWS} for m in harness.METRICS}
        in_row = {row: np.ones(3, dtype=bool) for row in harness.SEGMENT_ROWS}
        in_row["new_users"] = np.array([False, True, False])
        ok = {"CB": np.array([True, True, True]), "CF": np.array([True, False, True])}
        check_report(cells, ok, {}, in_row)
        with pytest.raises(InvalidReport, match="CB leaves 1 test users uncovered"):
            check_report(cells, {**ok, "CB": np.array([True, False, True])}, {}, in_row)
        with pytest.raises(InvalidReport, match="CF's uncovered test users are not the new users"):
            check_report(cells, {**ok, "CF": np.array([True, True, False])}, {}, in_row)


class TestRendering:
    def test_cell_formats(self):
        assert format_cell("ndcg", {"value": 0.126, "pct_over_random": 620.3}) == "0.126(620.3%)"
        assert format_cell("ad", {"point": 0.0, "sd": 0.0}) == "0(0)"
        assert format_cell("ad", {"point": 18.46, "sd": 3.71}) == "18.5(3.7)"
        assert format_cell("rp", {"point": 1.0, "sd": 0.0}) == "1(0)"
        assert format_cell("rp", {"point": 0.428, "sd": 0.081}) == "0.43(0.08)"
        assert format_cell("ndcg", None) == "-"

    def test_render_files(self, small_report, tmp_path):
        _, report = small_report
        written = render_report(report, tmp_path)
        names = {p.name for p in written}
        assert names == {"report.json", "ndcg.csv", "ad.csv", "rp.csv", "report.md"}
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload == report.payload
        ndcg_csv = (tmp_path / "tables" / "ndcg.csv").read_text()
        assert ndcg_csv.splitlines()[0] == "segment,MP,CF,CB"
        # CF dashes in the new-user and pooled rows
        rows = {line.split(",")[0]: line for line in ndcg_csv.splitlines()[1:]}
        assert rows["New Users"].split(",")[2] == "-"
        assert rows["Average"].split(",")[2] == "-"

    def test_json_load_render_round_trip(self, small_report, tmp_path):
        _, report = small_report
        first = tmp_path / "first"
        second = tmp_path / "second"
        render_report(report, first)
        loaded = EvaluationReport.from_json((first / "report.json").read_text())
        render_report(loaded, second, formats=("csv",))
        for name in ("ndcg", "ad", "rp"):
            assert (
                (first / "tables" / f"{name}.csv").read_text()
                == (second / "tables" / f"{name}.csv").read_text()
            )

    def test_from_json_holds_the_report_contract(self, small_report):
        # the library's way in reads as `stylebench report --report` does
        _, report = small_report
        text = report.to_json()
        assert EvaluationReport.from_json(text).payload == report.payload
        with pytest.raises(ValueError, match="key 'k' appears twice"):
            EvaluationReport.from_json(text.replace('"k": 10,', '"k": 10,\n    "k": 10,', 1))
        payload = json.loads(text)
        payload["cells"]["ndcg"]["average"]["MP"]["value"] = 7.0
        with pytest.raises(InvalidReport, match=r"report cell ndcg/average/MP: value = 7.0 is outside"):
            EvaluationReport.from_json(json.dumps(payload))
        del payload["dataset"]
        with pytest.raises(InvalidReport, match="report has no valid 'dataset'"):
            EvaluationReport.from_json(json.dumps(payload))
