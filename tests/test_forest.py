"""Forest engine: label augmentation, variance-reducing splits, ensemble
prediction, determinism, serialization."""

import dataclasses
import json
import os
import re
import sys
import tempfile
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stylebench import forest
from stylebench.als import AlsConfig, FactorModel, build_confidence
from stylebench.data import Dataset, FeatureColumn, FeatureTable, InteractionEvent, Kind
from stylebench.errors import (
    DataError,
    DegenerateTableWarning,
    MissingFeatures,
    SchemaMismatch,
)
from stylebench.forest import (
    AugmentedTable,
    FeatureSchema,
    FeatureSpec,
    ForestConfig,
    ForestModel,
    Tree,
    _mask_seed,
    augment_labels,
    encode_entities,
    fit_forest,
    load_forest,
    predict_forest,
    predict_forest_grid,
    save_forest,
)

from oracles import (
    forest_mean,
    loop_augment_labels,
    per_node_best_split,
    ref_fit_tree,
    tree_predict,
)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def ev(user, item, kind, hours=0, quantity=1):
    return InteractionEvent(user, item, kind, T0 + timedelta(hours=hours), quantity)


def numeric_table(n, seed=0, name="x"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=n)
    schema = FeatureSchema(
        specs=(FeatureSpec(name=f"user.{name}", side="user", column=name, kind="numeric"),)
    )
    return x.reshape(-1, 1), schema


def table_from(x, y, schema):
    return AugmentedTable(
        features=np.asarray(x, dtype=np.float64),
        labels=np.asarray(y, dtype=np.float64),
        schema=schema,
    )


class TestAugmentLabels:
    def _fixture(self):
        users = FeatureTable(
            ids=("u1", "u2"),
            columns={"age": FeatureColumn(kind="numeric", values=np.array([30.0, 40.0]))},
        )
        items = FeatureTable(
            ids=("iA", "iB", "iC"),
            columns={"price": FeatureColumn(kind="numeric", values=np.array([10.0, 20.0, 30.0]))},
        )
        train = Dataset.from_events(
            [
                ev("u1", "iA", Kind.VIEW, 0),
                ev("u2", "iB", Kind.SALE, 1),
                ev("u2", "iC", Kind.VIEW, 2),
            ],
            users,
            items,
        )
        cfg = AlsConfig()
        cm = build_confidence(train, cfg)
        # hand-built factors so unobserved scores are known exactly
        factors = FactorModel(
            user_factors=np.array([[1.7], [0.3]]),
            item_factors=np.array([[0.0], [1.0], [1.0]]),
            users=cm.users,
            items=cm.items,
            loss_trace=(1.0,),
            config=AlsConfig(factors=1),
        )
        return train, cm, factors

    @staticmethod
    def labels_by_pair(table):
        """Label per (user, item), read back from the fixture's distinct
        user ages and item prices."""
        user = {30.0: "u1", 40.0: "u2"}
        item = {10.0: "iA", 20.0: "iB", 30.0: "iC"}
        return {
            (user[age], item[price]): label
            for (age, price), label in zip(table.features.tolist(), table.labels)
        }

    def test_observed_view_label(self):
        train, cm, factors = self._fixture()
        table = augment_labels(train, cm, factors, ForestConfig(negatives_per_user=2))
        labels = self.labels_by_pair(table)
        assert labels[("u1", "iA")] == pytest.approx(1.0)

    def test_observed_sale_label_keeps_weight(self):
        train, cm, factors = self._fixture()
        table = augment_labels(train, cm, factors, ForestConfig(negatives_per_user=2))
        labels = self.labels_by_pair(table)
        assert labels[("u2", "iB")] == pytest.approx(5.0)
        assert labels[("u2", "iC")] == pytest.approx(1.0)

    def test_unobserved_scores_clamped(self):
        train, cm, factors = self._fixture()
        # u1 x iB and u1 x iC both score 1.7 -> clamped to 1.0
        table = augment_labels(train, cm, factors, ForestConfig(negatives_per_user=2))
        labels = self.labels_by_pair(table)
        assert labels[("u1", "iB")] == pytest.approx(1.0)
        assert labels[("u1", "iC")] == pytest.approx(1.0)
        # u2's only unobserved item scores 0.0, inside the clamp range
        assert labels[("u2", "iA")] == pytest.approx(0.0)

    def test_feature_rows_concatenate_user_then_item(self):
        train, cm, factors = self._fixture()
        table = augment_labels(train, cm, factors, ForestConfig(negatives_per_user=1))
        # u1 is the first user and iA its only observed item, so row 0
        assert table.features[0].tolist() == [30.0, 10.0]
        assert self.labels_by_pair(table)[("u1", "iA")] == pytest.approx(1.0)

    def test_missing_features_named(self):
        users = FeatureTable(
            ids=("u1",),
            columns={"age": FeatureColumn(kind="numeric", values=np.array([30.0]))},
        )
        items = FeatureTable(
            ids=("iA",),
            columns={"price": FeatureColumn(kind="numeric", values=np.array([10.0]))},
        )
        train = Dataset.from_events(
            [ev("u1", "iA", Kind.VIEW, 0), ev("u9", "iA", Kind.VIEW, 1)], users, items
        )
        cfg = AlsConfig()
        cm = build_confidence(train, cfg)
        factors = FactorModel(
            user_factors=np.zeros((2, 1)),
            item_factors=np.zeros((1, 1)),
            users=cm.users,
            items=cm.items,
            loss_trace=(0.0,),
            config=AlsConfig(factors=1),
        )
        with pytest.raises(MissingFeatures) as exc:
            augment_labels(train, cm, factors, ForestConfig())
        assert "u9" in str(exc.value)

    def test_negative_sampling_deterministic(self):
        train, cm, factors = self._fixture()
        cfg = ForestConfig(negatives_per_user=1, seed=9)
        a = augment_labels(train, cm, factors, cfg)
        b = augment_labels(train, cm, factors, cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), st.booleans()),
                       max_size=30),
        saw_all=st.booleans(),
        negatives=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_bit_identical_to_per_user_loop(self, cells, saw_all, negatives, seed):
        # u6 only views; with saw_all, u0 sees every item and draws no
        # negatives; up to 9 negatives exceed most users' unobserved count
        cells = cells + [(6, 0, False)] + ([(0, i, False) for i in range(7)] if saw_all else [])
        train = Dataset.from_events(
            [ev(f"u{u}", f"i{i}", Kind.SALE if sold else Kind.VIEW, h)
             for h, (u, i, sold) in enumerate(cells)],
            FeatureTable(ids=tuple(f"u{u}" for u in range(7)), columns={
                "age": FeatureColumn(kind="numeric", values=np.arange(7) * 7.5),
                "style": FeatureColumn(kind="categorical", values=list("abcabca")),
            }),
            FeatureTable(ids=tuple(f"i{i}" for i in range(7)), columns={
                "price": FeatureColumn(kind="numeric", values=np.arange(7) * 0.25),
            }),
        )
        cm = build_confidence(train, AlsConfig(sale_weight=3.0))
        rng = np.random.default_rng(seed)
        factors = FactorModel(
            user_factors=rng.normal(size=(len(cm.users), 3)),
            item_factors=rng.normal(size=(len(cm.items), 3)),
            users=cm.users,
            items=cm.items,
            loss_trace=(0.0,),
            config=AlsConfig(factors=3),
        )
        cfg = ForestConfig(negatives_per_user=negatives, seed=seed)
        got = augment_labels(train, cm, factors, cfg)
        want = loop_augment_labels(train, cm, factors, cfg)
        assert got.features.shape == want.features.shape
        assert np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
        assert np.array_equal(got.labels.view(np.uint64), want.labels.view(np.uint64))
        assert got.schema == want.schema


class TestFitForest:
    def test_constant_labels_single_leaves(self):
        x, schema = numeric_table(40)
        table = table_from(x, np.full(40, 0.7), schema)
        with pytest.warns(DegenerateTableWarning):
            model = fit_forest(table, ForestConfig(n_trees=5, seed=0))
        preds = predict_forest(model, np.array([[0.1], [0.9], [2.5]]))
        np.testing.assert_allclose(preds, 0.7)
        assert all(t.n_nodes == 1 for t in model.trees)

    def test_step_function_mse(self):
        x, schema = numeric_table(1000, seed=1)
        y = (x[:, 0] > 0.5).astype(np.float64)
        table = table_from(x, y, schema)
        model = fit_forest(table, ForestConfig(n_trees=30, seed=2))
        grid = np.linspace(0.0, 1.0, 401).reshape(-1, 1)
        truth = (grid[:, 0] > 0.5).astype(np.float64)
        mse = float(np.mean((predict_forest(model, grid) - truth) ** 2))
        assert mse < 0.01

    def test_bit_identical_given_seed(self):
        x, schema = numeric_table(200, seed=3)
        y = np.sin(x[:, 0] * 6.0)
        table = table_from(x, y, schema)
        a = fit_forest(table, ForestConfig(n_trees=8, seed=4))
        b = fit_forest(table, ForestConfig(n_trees=8, seed=4))
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value, equal_nan=True)

    def test_thread_count_does_not_change_model(self):
        x, schema = numeric_table(150, seed=5)
        y = x[:, 0] ** 2
        table = table_from(x, y, schema)
        a = fit_forest(table, ForestConfig(n_trees=6, seed=6), threads=1)
        b = fit_forest(table, ForestConfig(n_trees=6, seed=6), threads=2)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value, equal_nan=True)

    def test_pool_pickles_the_fit_state_once_per_worker(self, monkeypatch):
        x, schema = numeric_table(150, seed=5)
        table = table_from(x, x[:, 0] ** 2, schema)
        pickled = []

        def getstate(state):
            pickled.append(1)
            return state.__dict__

        monkeypatch.setattr(forest._FitState, "__getstate__", getstate, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = ForestConfig(n_trees=5, seed=6)
        a = fit_forest(table, cfg, threads=2)
        assert len(pickled) == 2
        b = fit_forest(table, cfg, threads=1)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value, equal_nan=True)

    @pytest.mark.parametrize(
        "n_trees, threads, workers",
        [(10, 8, [5]), (5, 2, [2]), (7, 3, [3]), (1, 4, []), (3, 1, [])],
    )
    def test_pool_starts_one_worker_per_chunk(self, monkeypatch, n_trees, threads, workers):
        # a forked pool starts all max_workers at its first submit, so a
        # worker without a chunk would only idle
        started = serial_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        x, schema = numeric_table(60, seed=5)
        table = table_from(x, x[:, 0] ** 2, schema)
        cfg = ForestConfig(n_trees=n_trees, seed=6)
        pooled = fit_forest(table, cfg, threads=threads)
        assert started == workers
        for ta, tb in zip(pooled.trees, fit_forest(table, cfg).trees, strict=True):
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value, equal_nan=True)

    @pytest.mark.parametrize("affinity, cpu_count, workers", [({0, 1}, 8, [2]), (None, 3, [3])])
    def test_workers_capped_at_usable_cpus(self, monkeypatch, affinity, cpu_count, workers):
        # each forked worker holds its own copy of the fit state: threads=64
        # once opened a worker per tree chunk on a 2-CPU box
        started = serial_pool(monkeypatch)
        if affinity is None:  # a platform without sched_getaffinity
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        x, schema = numeric_table(60, seed=5)
        table = table_from(x, x[:, 0] ** 2, schema)
        cfg = ForestConfig(n_trees=20, seed=6)
        pooled = fit_forest(table, cfg, threads=64)
        assert started == workers
        for ta, tb in zip(pooled.trees, fit_forest(table, cfg, threads=1).trees, strict=True):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value, equal_nan=True)

    def test_threshold_between_adjacent_doubles_separates(self):
        below = np.nextafter(1.0, 2.0)
        above = np.nextafter(below, 2.0)  # (below + above) / 2 rounds to above
        x = np.array([[below], [above]] * 10)
        schema = FeatureSchema(
            specs=(FeatureSpec(name="user.x", side="user", column="x", kind="numeric"),)
        )
        model = fit_forest(
            table_from(x, np.array([0.0, 1.0] * 10), schema),
            ForestConfig(n_trees=3, min_leaf=1, seed=0),
        )
        for tree in model.trees:
            assert tree.n_nodes == 3
            assert below <= tree.threshold[0] < above
        np.testing.assert_array_equal(predict_forest(model, x[:2]), [0.0, 1.0])

    def test_features_per_split_cannot_exceed_width(self):
        x, schema = numeric_table(30)
        table = table_from(x, x[:, 0], schema)
        with pytest.raises(ValueError):
            fit_forest(table, ForestConfig(n_trees=2, features_per_split=3, seed=0))

    def test_min_leaf_respected(self):
        x, schema = numeric_table(60, seed=7)
        y = np.sin(x[:, 0] * 9.0)
        cfg = ForestConfig(n_trees=4, min_leaf=7, seed=8)
        model = fit_forest(table_from(x, y, schema), cfg)
        for t, tree in enumerate(model.trees):
            rng = np.random.default_rng(
                np.random.SeedSequence([_mask_seed(cfg.seed), 1, t])
            )
            boot = rng.integers(0, 60, size=60)
            counts = _leaf_counts(tree, x[boot])
            assert min(counts.values()) >= 7

    def test_variance_reduction_on_every_split(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(300, 2))
        y = np.where(x[:, 0] > 0.6, 2.0, 0.0) + rng.normal(scale=0.3, size=300)
        schema = FeatureSchema(
            specs=(
                FeatureSpec(name="user.a", side="user", column="a", kind="numeric"),
                FeatureSpec(name="user.b", side="user", column="b", kind="numeric"),
            )
        )
        cfg = ForestConfig(n_trees=5, features_per_split=2, seed=11)
        model = fit_forest(table_from(x, y, schema), cfg)
        for t, tree in enumerate(model.trees):
            tree_rng = np.random.default_rng(
                np.random.SeedSequence([_mask_seed(cfg.seed), 1, t])
            )
            boot = tree_rng.integers(0, len(y), size=len(y))
            _assert_children_reduce_variance(tree, x[boot], y[boot])

    def test_variance_shrinks_with_ensemble_size(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(size=(400, 1))
        y = np.sin(x[:, 0] * 6.28) + rng.normal(scale=0.4, size=400)
        schema = FeatureSchema(
            specs=(FeatureSpec(name="user.x", side="user", column="x", kind="numeric"),)
        )
        table = table_from(x, y, schema)
        grid = np.linspace(0.01, 0.99, 60).reshape(-1, 1)
        spreads = []
        for n_trees in (4, 16, 64):
            preds = np.stack([
                predict_forest(
                    fit_forest(table, ForestConfig(n_trees=n_trees, seed=s)), grid
                )
                for s in range(8)
            ])
            spreads.append(float(preds.var(axis=0).mean()))
        assert spreads[0] > spreads[1] > spreads[2]


class TestCategoricalSplits:
    def _cat_table(self, n_levels, n_rows, seed):
        rng = np.random.default_rng(seed)
        levels = tuple(f"lv{c:02d}" for c in range(n_levels))
        codes = rng.integers(0, n_levels, size=n_rows)
        level_means = rng.uniform(0.0, 4.0, size=n_levels)
        y = level_means[codes] + rng.normal(scale=0.05, size=n_rows)
        schema = FeatureSchema(
            specs=(
                FeatureSpec(
                    name="item.color", side="item", column="color",
                    kind="categorical", levels=levels,
                ),
            )
        )
        return codes.reshape(-1, 1).astype(np.float64), y, schema, level_means

    @pytest.mark.parametrize("n_levels", [5, 20])
    def test_learns_level_means(self, n_levels):
        x, y, schema, level_means = self._cat_table(n_levels, 1200, seed=13)
        model = fit_forest(table_from(x, y, schema), ForestConfig(n_trees=20, seed=14))
        grid = np.arange(n_levels, dtype=np.float64).reshape(-1, 1)
        preds = predict_forest(model, grid)
        assert float(np.mean((preds - level_means) ** 2)) < 0.05

    def test_subset_split_exact_when_few_levels(self):
        # two clusters of levels; an exact subset split separates them at the root
        levels = ("a", "b", "c", "d")
        codes = np.tile(np.arange(4), 100)
        y = np.where(np.isin(codes, (0, 2)), 5.0, 1.0) + np.random.default_rng(15).normal(
            scale=0.01, size=400
        )
        schema = FeatureSchema(
            specs=(
                FeatureSpec(
                    name="item.c", side="item", column="c",
                    kind="categorical", levels=levels,
                ),
            )
        )
        model = fit_forest(
            table_from(codes.reshape(-1, 1).astype(float), y, schema),
            ForestConfig(n_trees=1, seed=16),
        )
        tree = model.trees[0]
        assert tree.is_cat[0]
        left_levels = set(np.flatnonzero(tree.members[0]))
        assert left_levels in ({0, 2}, {1, 3})


class TestPredictForest:
    def _model(self, n_trees=10):
        x, schema = numeric_table(300, seed=17)
        y = np.cos(x[:, 0] * 3.0)
        return fit_forest(table_from(x, y, schema), ForestConfig(n_trees=n_trees, seed=18)), y

    def test_bounded_by_training_labels(self):
        model, y = self._model()
        rows = np.array([[v] for v in (-10.0, 0.0, 0.5, 1.0, 10.0)])
        preds = predict_forest(model, rows)
        assert np.all(preds >= y.min() - 1e-12)
        assert np.all(preds <= y.max() + 1e-12)

    def test_single_tree_equals_leaf_mean(self):
        model, _ = self._model(n_trees=1)
        rows = np.array([[0.3], [0.8]])
        got, want = predict_forest(model, rows), tree_predict(model.trees[0], rows)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_external_tree_average(self):
        model, _ = self._model(n_trees=100)
        rows = np.random.default_rng(19).uniform(size=(50, 1))
        got, want = predict_forest(model, rows), forest_mean(model, rows)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_schema_mismatch(self):
        model, _ = self._model(n_trees=2)
        with pytest.raises(SchemaMismatch):
            predict_forest(model, np.zeros((3, 2)))

    def test_row_chunks_change_no_bit(self, monkeypatch):
        import stylebench.forest as forest

        model, _ = self._model(n_trees=5)
        rows = np.random.default_rng(20).uniform(-1.0, 2.0, size=(37, 1))
        whole = predict_forest(model, rows)
        co_partition, chunks = forest._co_partition, []

        def recording(model, n_user, rows, items):
            chunks.append(len(rows))
            return co_partition(model, n_user, rows, items)

        monkeypatch.setattr(forest, "_co_partition", recording)
        # the budget counts (row, internal node) decisions: one row per chunk,
        # three rows per chunk (the last chunk short)
        internal = max(int(np.count_nonzero(t.feature >= 0)) for t in model.trees)
        for budget, sizes in ((1, [1] * 37), (3 * internal, [3] * 12 + [1])):
            monkeypatch.setattr(forest, "_ROW_NODE_BUDGET", budget)
            chunks.clear()
            got = predict_forest(model, rows)
            assert chunks == sizes
            assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))
        assert predict_forest(model, rows[:0]).shape == (0,)


def _grid_case(case):
    """A fitted forest over drawn user and item columns (either side may
    have none) and drawn user and item feature rows, from Hypothesis's
    ``case``."""
    n = case.draw(st.integers(12, 60), label="rows")
    columns, specs = [], []
    for side in ("user", "item"):
        for j in range(case.draw(st.integers(0, 2), label=f"{side} numeric columns")):
            distinct = case.draw(st.integers(1, 8))
            values = case.draw(st.lists(st.integers(0, distinct), min_size=n, max_size=n))
            columns.append(np.array(values) * 0.5)
            specs.append(FeatureSpec(f"{side}.n{j}", side, f"n{j}", "numeric"))
        for j in range(case.draw(st.integers(0, 2), label=f"{side} categorical columns")):
            n_levels = case.draw(st.integers(2, 8))
            values = case.draw(st.lists(st.integers(0, n_levels - 1), min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.float64))
            levels = tuple(f"lv{c}" for c in range(n_levels))
            specs.append(FeatureSpec(f"{side}.c{j}", side, f"c{j}", "categorical", levels))
    assume(columns)
    y = np.array(case.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))) / 4.0
    assume(np.ptp(y) > 0)
    schema = FeatureSchema(specs=tuple(specs))
    cfg = ForestConfig(
        n_trees=case.draw(st.integers(1, 3), label="trees"),
        max_depth=case.draw(st.integers(1, 6), label="max_depth"),
        min_leaf=case.draw(st.integers(1, 8), label="min_leaf"),
        seed=case.draw(st.integers(0, 2**32), label="seed"),
    )
    model = fit_forest(table_from(np.array(columns).T, y, schema), cfg)

    # entity values come from the training values and the split thresholds,
    # and a numeric column may also hold NaN (which goes right) and ±inf
    def entities(side):
        cols = [f for f, spec in enumerate(specs) if spec.side == side]
        pools = []
        for f in cols:
            pool, extra = set(columns[f]), []
            if specs[f].kind == "numeric":
                pool.update(float(v) for t in model.trees for v in t.threshold[t.feature == f])
                extra = [np.nan, -np.inf, np.inf]
            pools.append(sorted(pool) + extra)
        count = case.draw(st.integers(0, 6), label=f"{side}s")
        rows = [[case.draw(st.sampled_from(pool)) for pool in pools] for _ in range(count)]
        # repeated rows, which tie in the walk's feature order
        if count:
            rows += case.draw(st.lists(st.sampled_from(rows), max_size=3), label=f"repeated {side}s")
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(cols))

    return model, entities("user"), entities("item")


class TestPredictForestGrid:
    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_equals_predict_forest_on_concatenated_rows(self, case):
        model, users, items = _grid_case(case)
        rows = np.hstack([np.repeat(users, len(items), axis=0), np.tile(items, (len(users), 1))])
        expected = forest_mean(model, rows).reshape(len(users), len(items))
        flat = predict_forest(model, rows).reshape(expected.shape)
        assert np.array_equal(flat.view(np.uint64), expected.view(np.uint64))
        with tempfile.TemporaryDirectory() as tmp:
            save_forest(model, Path(tmp) / "forest.json")
            loaded = load_forest(Path(tmp) / "forest.json")
        for m in (model, loaded):
            grid = predict_forest_grid(m, users, items)
            assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_walk_order_changes_no_bit(self, case):
        # the walk sorts each side by its feature rows and puts the scores
        # back, so entities given in any order score the same, bit for bit
        model, users, items = _grid_case(case)
        p = np.array(case.draw(st.permutations(range(len(users)))), dtype=np.int64)
        q = np.array(case.draw(st.permutations(range(len(items)))), dtype=np.int64)
        whole = predict_forest_grid(model, users, items)
        got = predict_forest_grid(model, users[p], items[q])
        assert np.array_equal(got.view(np.uint64), whole[p][:, q].view(np.uint64))
        rows = np.hstack([np.repeat(users, len(items), axis=0), np.tile(items, (len(users), 1))])
        r = np.array(case.draw(st.permutations(range(len(rows)))), dtype=np.int64)
        got = predict_forest(model, rows[r])
        assert np.array_equal(got.view(np.uint64), predict_forest(model, rows)[r].view(np.uint64))

    def test_twig_nodes_on_both_sides(self):
        # nodes 1 (depth 1, an item column) and 5 (depth 2, a user column)
        # have two leaf children, so each writes its block in one go
        feature = np.array([0, 2, 1, -1, -1, 0, -1, -1, -1])
        threshold = np.array([0.5, 0.3, np.nan, np.nan, np.nan, 0.8, np.nan, np.nan, np.nan])
        left = np.array([1, 3, 5, -1, -1, 7, -1, -1, -1])
        is_cat = np.arange(9) == 2
        members = np.zeros((9, 3), dtype=bool)
        members[2, [0, 2]] = True
        tree = Tree(
            feature=feature,
            threshold=threshold,
            left=left,
            right=np.where(left >= 0, left + 1, -1),
            value=np.where(feature >= 0, np.nan, np.arange(9) / 7.0),
            is_cat=is_cat,
            members=members,
        )
        specs = (
            FeatureSpec("user.x", "user", "x", "numeric"),
            FeatureSpec("item.c", "item", "c", "categorical", ("a", "b", "c")),
            FeatureSpec("item.z", "item", "z", "numeric"),
        )
        model = ForestModel(
            trees=(tree, tree), schema=FeatureSchema(specs), config=ForestConfig(n_trees=2)
        )
        users = np.array([[0.9], [0.2], [0.6], [np.nan], [0.5], [0.8], [-np.inf], [0.6]])
        items = np.array([[2, 0.1], [1, 0.4], [0, 0.3], [1, np.inf], [0, np.nan], [2, 0.3]])
        rows = np.hstack([np.repeat(users, len(items), axis=0), np.tile(items, (len(users), 1))])
        expected = forest_mean(model, rows)
        assert set(tree_predict(tree, rows)) == set(tree.value[[3, 4, 6, 7, 8]])
        grid = predict_forest_grid(model, users, items)
        assert np.array_equal(grid.ravel().view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(predict_forest(model, rows).view(np.uint64), expected.view(np.uint64))

    @staticmethod
    def _complete_tree_peak():
        """The tracemalloc peak of one predict_forest_grid call on a complete
        tree of depth 10 over 4 user columns (1,023 user-side internal nodes
        and 1,024 leaves), for 3,000 users and 2 featureless items."""
        rng = np.random.default_rng(31)
        n_users, n_internal, p = 3000, 2**10 - 1, 4
        n_nodes = 2 * n_internal + 1
        internal = np.arange(n_nodes) < n_internal
        left = np.where(internal, 2 * np.arange(n_nodes) + 1, -1)
        tree = Tree(
            feature=np.where(internal, rng.integers(0, p, n_nodes), -1),
            threshold=np.where(internal, rng.uniform(size=n_nodes), np.nan),
            left=left,
            right=np.where(internal, left + 1, -1),
            value=np.where(internal, np.nan, rng.uniform(size=n_nodes)),
            is_cat=np.zeros(n_nodes, dtype=bool),
            members=np.zeros((n_nodes, 1), dtype=bool),
        )
        specs = tuple(FeatureSpec(f"user.x{j}", "user", f"x{j}", "numeric") for j in range(p))
        model = ForestModel(
            trees=(tree,), schema=FeatureSchema(specs), config=ForestConfig(n_trees=1)
        )
        users = rng.uniform(size=(n_users, p))
        tracemalloc.start()
        try:
            grid = predict_forest_grid(model, users, np.empty((2, 0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = np.repeat(forest_mean(model, users)[:, None], 2, axis=1)
        assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64))
        return peak, n_users, n_internal

    def test_decision_tables_need_no_entity_by_node_gather(self):
        peak, n_users, n_internal = self._complete_tree_peak()
        # a users x nodes float64 gather alone would take 24.6 MB
        assert peak < n_users * n_internal * 8 / 2

    def test_decision_tables_hold_internal_nodes_only(self):
        peak, n_users, n_internal = self._complete_tree_peak()
        # a users x all-nodes boolean table alone would take 6.1 MB; the
        # users x internal-nodes one takes 3.1 MB
        assert peak < n_users * (2 * n_internal + 1)

    def test_schema_mismatch(self):
        x, schema = numeric_table(100, seed=17)
        model = fit_forest(table_from(x, x[:, 0], schema), ForestConfig(n_trees=2, seed=18))
        with pytest.raises(SchemaMismatch):
            predict_forest_grid(model, np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(SchemaMismatch):
            predict_forest_grid(model, np.zeros(3), np.zeros((2, 0)))
        assert predict_forest_grid(model, np.zeros((3, 1)), np.zeros((2, 0))).shape == (3, 2)


class TestForestSerialization:
    def test_round_trip_predictions_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        x = np.hstack([
            rng.uniform(size=(250, 1)),
            rng.integers(0, 4, size=(250, 1)).astype(float),
        ])
        y = x[:, 0] * 2 + (x[:, 1] == 2) * 1.5
        schema = FeatureSchema(
            specs=(
                FeatureSpec(name="user.x", side="user", column="x", kind="numeric"),
                FeatureSpec(
                    name="item.c", side="item", column="c",
                    kind="categorical", levels=("p", "q", "r", "s"),
                ),
            )
        )
        model = fit_forest(table_from(x, y, schema), ForestConfig(n_trees=7, seed=21))
        path = tmp_path / "forest.json"
        save_forest(model, path)
        again = load_forest(path)
        rows = np.hstack([
            rng.uniform(size=(40, 1)),
            rng.integers(0, 4, size=(40, 1)).astype(float),
        ])
        np.testing.assert_array_equal(
            predict_forest(model, rows), predict_forest(again, rows)
        )
        assert again.schema == model.schema
        assert again.config == model.config

    def test_loads_past_a_byte_order_mark(self, tmp_path):
        x = np.hstack([
            np.random.default_rng(24).uniform(size=(60, 1)),
            np.arange(60).reshape(-1, 1) % 3.0,
        ])
        schema = FeatureSchema(specs=(
            FeatureSpec(name="user.x", side="user", column="x", kind="numeric"),
            FeatureSpec(name="item.c", side="item", column="c", kind="categorical",
                        levels=("p", "q", "r")),
        ))
        model = fit_forest(table_from(x, x[:, 0], schema), ForestConfig(n_trees=3, seed=25))
        path, marked = tmp_path / "forest.json", tmp_path / "marked.json"
        save_forest(model, path)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, again = load_forest(path), load_forest(marked)
        assert (again.schema, again.config) == (plain.schema, plain.config)
        for tree, want in zip(again.trees, plain.trees, strict=True):
            for field in dataclasses.fields(Tree):
                got, expected = getattr(tree, field.name), getattr(want, field.name)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected, equal_nan=got.dtype.kind == "f")

    def test_unreadable_file_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "forest.json"
        path.write_text("[1, 2]")
        fault = f"model {re.escape(str(path))} must hold a JSON object"
        with pytest.raises(DataError, match=fault):
            load_forest(path)

    def test_file_keys_and_older_label_range_keys(self, tmp_path):
        # the file holds no label range; one written with it still loads
        x = np.random.default_rng(22).uniform(size=(40, 1))
        schema = FeatureSchema(
            specs=(FeatureSpec(name="user.x", side="user", column="x", kind="numeric"),)
        )
        model = fit_forest(table_from(x, x[:, 0], schema), ForestConfig(n_trees=2, seed=23))
        path = tmp_path / "forest.json"
        save_forest(model, path)
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["config", "kind", "schema", "trees"]
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**payload, "label_min": 0.0, "label_max": 1.0}))
        np.testing.assert_array_equal(
            predict_forest(load_forest(older), x), predict_forest(model, x)
        )


class TestLevelwiseSearch:
    # 0 sends every depth to the np.unique branch of the key count
    @pytest.mark.parametrize(
        "bins_per_key",
        [pytest.param(0, id="unique"), pytest.param(forest._DENSE_BINS_PER_KEY, id="default")],
    )
    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_every_split_is_the_per_node_optimum(self, bins_per_key, case):
        n = case.draw(st.integers(12, 60), label="rows")
        n_num = case.draw(st.integers(0, 2), label="numeric columns")
        n_cat = case.draw(st.integers(1 if n_num == 0 else 0, 2), label="categorical columns")
        columns, specs = [], []
        for j in range(n_num):
            distinct = case.draw(st.integers(1, 8))
            columns.append(case.draw(st.lists(st.integers(0, distinct), min_size=n, max_size=n)))
            specs.append(FeatureSpec(name=f"user.n{j}", side="user", column=f"n{j}", kind="numeric"))
        for j in range(n_cat):
            n_levels = case.draw(st.integers(2, 20))
            columns.append(case.draw(st.lists(st.integers(0, n_levels - 1), min_size=n, max_size=n)))
            specs.append(
                FeatureSpec(
                    name=f"item.c{j}", side="item", column=f"c{j}", kind="categorical",
                    levels=tuple(f"lv{c}" for c in range(n_levels)),
                )
            )
        # quarter-step labels keep every sum exact, so no split is a near tie
        y = np.array(case.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))) / 4.0
        assume(np.ptp(y) > 0)
        x = np.array(columns, dtype=np.float64).T
        x[:, :n_num] *= 0.5
        p = x.shape[1]
        is_cat = [spec.kind == "categorical" for spec in specs]
        cfg = ForestConfig(
            n_trees=2,
            max_depth=5,
            min_leaf=case.draw(st.integers(1, 4), label="min_leaf"),
            features_per_split=case.draw(st.integers(1, p), label="features_per_split"),
            seed=case.draw(st.integers(0, 2**32), label="seed"),
        )
        with mock.patch.object(forest, "_DENSE_BINS_PER_KEY", bins_per_key):
            model = fit_forest(table_from(x, y, FeatureSchema(specs=tuple(specs))), cfg)
        for t, tree in enumerate(model.trees):
            # replay the tree's RNG contract: bootstrap, then one feature-subset
            # draw per depth for that depth's splittable nodes in node order
            rng = np.random.default_rng(
                np.random.SeedSequence([_mask_seed(cfg.seed), 1, t])
            )
            level = [(0, rng.integers(0, n, size=n))]
            for depth in range(cfg.max_depth + 1):
                open_nodes = []
                for node, idx in level:
                    y_node = y[idx]
                    sse = (y_node**2).sum() - y_node.sum() ** 2 / len(idx)
                    if depth < cfg.max_depth and len(idx) >= 2 * cfg.min_leaf and sse > 1e-12:
                        open_nodes.append((node, idx))
                    else:
                        assert tree.feature[node] < 0
                if not open_nodes:
                    break
                chosen = np.argsort(
                    rng.random((len(open_nodes), p)), axis=1, kind="stable"
                )[:, : cfg.features_per_split]
                level = []
                for (node, idx), features in zip(open_nodes, chosen):
                    best = per_node_best_split(x[idx], y[idx], features, is_cat, cfg.min_leaf)
                    if best is None:
                        assert tree.feature[node] < 0
                        continue
                    assert tree.feature[node] == best[1]
                    go_left = _goes_left(tree, node, x[idx])
                    left, right = idx[go_left], idx[~go_left]
                    assert min(len(left), len(right)) >= cfg.min_leaf
                    crit = y[left].sum() ** 2 / len(left) + y[right].sum() ** 2 / len(right)
                    assert crit == pytest.approx(best[0], rel=1e-9)
                    level += [(tree.left[node], left), (tree.right[node], right)]

    @settings(max_examples=40, deadline=None)
    @given(case=st.data())
    def test_dense_bins_and_sorted_keys_grow_equal_trees(self, case):
        n = case.draw(st.integers(12, 300), label="rows")
        rng = np.random.default_rng(case.draw(st.integers(0, 2**32), label="data seed"))
        columns, specs = [], []
        if case.draw(st.booleans(), label="all-distinct numeric column"):
            columns.append(rng.permutation(n) * 0.37 - 5.0)
            specs.append(FeatureSpec(name="user.d", side="user", column="d", kind="numeric"))
        for j in range(case.draw(st.integers(0, 2), label="few-valued numeric columns")):
            columns.append(rng.integers(0, case.draw(st.integers(1, 8)), n) * 0.5)
            specs.append(FeatureSpec(name=f"user.n{j}", side="user", column=f"n{j}", kind="numeric"))
        n_cat = case.draw(st.integers(1 if not specs else 0, 2), label="categorical columns")
        for j in range(n_cat):
            n_levels = case.draw(st.integers(2, 20))
            columns.append(rng.integers(0, n_levels, n))
            specs.append(
                FeatureSpec(
                    name=f"item.c{j}", side="item", column=f"c{j}", kind="categorical",
                    levels=tuple(f"lv{c}" for c in range(n_levels)),
                )
            )
        x = np.array(columns, dtype=np.float64).T
        table = table_from(x, rng.normal(size=n), FeatureSchema(specs=tuple(specs)))
        cfg = ForestConfig(
            n_trees=3,
            max_depth=8,
            min_leaf=case.draw(st.integers(1, 4), label="min_leaf"),
            features_per_split=case.draw(st.integers(1, x.shape[1]), label="features_per_split"),
            seed=case.draw(st.integers(0, 2**32), label="seed"),
        )
        count_keys = forest._count_keys
        models, counts = [], ([], [])
        for bins_per_key, seen in zip((0, np.inf), counts):  # all sorted, all binned

            def recording(*args, seen=seen):
                seen.append(count_keys(*args))
                return seen[-1]

            with mock.patch.object(forest, "_DENSE_BINS_PER_KEY", bins_per_key), \
                    mock.patch.object(forest, "_count_keys", recording):
                models.append(fit_forest(table, cfg))
        # the same keys, in the same order, with the same sums bit for bit
        assert len(counts[0]) == len(counts[1])
        for (*a, a_num), (*b, b_num) in zip(*counts):
            assert a_num == b_num
            for x_a, x_b in zip(a, b):
                assert x_a.dtype == x_b.dtype and np.array_equal(x_a.view(np.uint64), x_b.view(np.uint64))
        for ta, tb in zip(*(model.trees for model in models)):
            _assert_equal_trees(ta, tb)

    @settings(max_examples=60, deadline=None)
    @given(case=st.data())
    def test_trees_equal_the_reference_fit(self, case):
        n = case.draw(st.integers(12, 200), label="rows")
        rng = np.random.default_rng(case.draw(st.integers(0, 2**32), label="data seed"))
        columns, specs = [], []
        # about one value per row, so deep depths count keys by np.unique
        if case.draw(st.booleans(), label="all-distinct numeric column"):
            columns.append(rng.permutation(n) * 0.37 - 5.0)
            specs.append(FeatureSpec(name="user.d", side="user", column="d", kind="numeric"))
        for j in range(case.draw(st.integers(0, 2), label="few-valued numeric columns")):
            columns.append(rng.integers(0, case.draw(st.integers(1, 8)), n) * 0.5)
            specs.append(FeatureSpec(name=f"user.n{j}", side="user", column=f"n{j}", kind="numeric"))
        # up to _EXACT_SUBSET_LEVELS levels every subset is tried, above it
        # prefixes of the levels by mean label
        n_levels = case.draw(st.lists(st.integers(2, 20), max_size=2), label="categorical levels")
        for j, width in enumerate(n_levels):
            columns.append(rng.integers(0, width, n))
            specs.append(
                FeatureSpec(
                    name=f"item.c{j}", side="item", column=f"c{j}", kind="categorical",
                    levels=tuple(f"lv{c}" for c in range(width)),
                )
            )
        assume(columns)
        x = np.array(columns, dtype=np.float64).T
        # quarter-step labels tie many keys and criteria
        table = table_from(x, rng.integers(0, 21, n) / 4.0, FeatureSchema(specs=tuple(specs)))
        # a min_leaf near n / 2 leaves depths where no node can split, or only
        # the root; a small one depths where every node splits
        min_leaf = case.draw(
            st.one_of(st.integers(1, 4), st.integers(n // 4, n // 2)), label="min_leaf"
        )
        cfg = ForestConfig(
            n_trees=3,
            max_depth=case.draw(st.integers(1, 8), label="max_depth"),
            min_leaf=min_leaf,
            features_per_split=case.draw(st.integers(1, x.shape[1]), label="features_per_split"),
            seed=case.draw(st.integers(0, 2**32), label="seed"),
        )
        model = fit_forest(table, cfg)
        state = forest._FitState.build(table, cfg)
        for t, tree in enumerate(model.trees):
            _assert_equal_trees(tree, ref_fit_tree(state, t))

    def test_all_distinct_column_falls_back_to_sorted_keys(self, monkeypatch):
        # one np.unique call ranks the numeric column; any more count keys
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        rng = np.random.default_rng(5)
        few_valued = rng.integers(0, 4, 2000) * 1.0
        for column, sorted_depths in ((few_valued, False), (rng.permutation(2000) * 1.0, True)):
            calls.clear()
            x, schema = column.reshape(-1, 1), numeric_table(1)[1]
            fit_forest(table_from(x, np.sin(x[:, 0]), schema), ForestConfig(n_trees=1, seed=6))
            assert (len(calls) > 1) == sorted_depths

    def test_concurrent_fits_in_threads_match_sequential(self):
        tables = []
        for seed, n in ((30, 400), (31, 250)):
            x, schema = numeric_table(n, seed=seed)
            tables.append(table_from(x, np.sin(x[:, 0] * (seed - 25)), schema))
        cfg = ForestConfig(n_trees=12, seed=32)
        sequential = [fit_forest(table, cfg) for table in tables]
        concurrent = [None, None]

        def fit(i):
            concurrent[i] = fit_forest(tables[i], cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=fit, args=(i,)) for i in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for seq, conc in zip(sequential, concurrent):
            for ta, tb in zip(seq.trees, conc.trees):
                assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
                assert np.array_equal(ta.value, tb.value, equal_nan=True)


class TestFitForestInput:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (("x", 3, np.nan), "user.x"),
            (("x", 0, np.inf), "user.x"),
            (("y", 5, np.nan), "labels"),
            (("y", 1, -np.inf), "labels"),
        ],
    )
    def test_non_finite_values_rejected(self, bad, message):
        x, schema = numeric_table(20)
        y = x[:, 0].copy()
        where, row, value = bad
        (x[:, 0] if where == "x" else y)[row] = value
        with pytest.raises(ValueError, match=message):
            fit_forest(table_from(x, y, schema), ForestConfig(n_trees=2, seed=0))

    # 1e20 does not fit an integer code, 2**40 does not fit an int32 one
    @pytest.mark.parametrize("code", [-1.0, 4.0, 1.5, 1e20, 2.0**40])
    def test_categorical_values_must_be_level_codes(self, code):
        x = np.tile(np.arange(4.0), 5).reshape(-1, 1)
        x[7, 0] = code
        schema = FeatureSchema(
            specs=(
                FeatureSpec(
                    name="item.c", side="item", column="c",
                    kind="categorical", levels=("a", "b", "c", "d"),
                ),
            )
        )
        with pytest.raises(ValueError, match="item.c"):
            fit_forest(table_from(x, np.arange(20.0), schema), ForestConfig(n_trees=2, seed=0))

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("code", [7.0, 1.5, -3.0, np.nan])
    def test_prediction_rejects_values_that_are_not_level_codes(self, code, grid):
        # the fit rejects these; prediction must too, not clip or cast them
        schema = FeatureSchema(
            specs=(
                FeatureSpec(
                    name="item.c", side="item", column="c",
                    kind="categorical", levels=("a", "b", "c"),
                ),
            )
        )
        x = np.tile(np.arange(3.0), 10).reshape(-1, 1)
        model = fit_forest(table_from(x, x[:, 0] % 2, schema), ForestConfig(n_trees=2, seed=0))
        items = np.array([[1.0], [code], [0.0]])
        with pytest.raises(SchemaMismatch, match="item.c"):
            if grid:
                predict_forest_grid(model, np.empty((2, 0)), items)
            else:
                predict_forest(model, items)


class TestEncodeEntities:
    # the table's vocabulary is wider than the schema's levels
    SCHEMA = FeatureSchema(specs=(FeatureSpec("user.c", "user", "c", "categorical", ("a", "b")),))

    def table(self, values):
        column = FeatureColumn("categorical", np.array(values, dtype=object), ("a", "b", "x", "y"))
        return FeatureTable(ids=("u3", "u1", "u2"), columns={"c": column})

    def test_codes_in_the_order_asked(self):
        got = encode_entities(self.SCHEMA, self.table(["b", "a", "b"]), "user", ["u1", "u3", "u1"])
        assert got.tolist() == [[0.0], [1.0], [0.0]]

    def test_first_absent_id_named(self):
        with pytest.raises(MissingFeatures, match="user 'u9' has no feature row"):
            encode_entities(self.SCHEMA, self.table(["a", "a", "b"]), "user", ["u1", "u9", "u0"])

    def test_first_unknown_level_named(self):
        with pytest.raises(SchemaMismatch, match="level 'y' not in schema for user.c"):
            encode_entities(self.SCHEMA, self.table(["x", "a", "y"]), "user", ["u2", "u3", "u1"])


def serial_pool(monkeypatch) -> list:
    """Patch the forest's process pool with one that maps in the calling
    process, and return the list it appends each pool's ``max_workers`` to."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(forest, "ProcessPoolExecutor", SerialPool)
    return started


def _assert_equal_trees(ta, tb):
    """Equal as arrays, thresholds and values bit for bit."""
    for name in ("feature", "left", "right", "is_cat", "members"):
        assert np.array_equal(getattr(ta, name), getattr(tb, name))
    for name in ("threshold", "value"):
        assert np.array_equal(getattr(ta, name).view(np.uint64), getattr(tb, name).view(np.uint64))


def _goes_left(tree, node, rows):
    values = rows[:, tree.feature[node]]
    if tree.is_cat[node]:
        return tree.members[node, values.astype(int)]
    return values <= tree.threshold[node]


def _leaf_counts(tree, rows):
    counts = {}
    for row in rows:
        node = 0
        while tree.feature[node] >= 0:
            value = row[tree.feature[node]]
            if tree.is_cat[node]:
                go_left = bool(tree.members[node, int(value)])
            else:
                go_left = value <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        counts[node] = counts.get(node, 0) + 1
    return counts


def _assert_children_reduce_variance(tree, x, y):
    def recurse(node, idx):
        if tree.feature[node] < 0:
            return
        values = x[idx, tree.feature[node]]
        if tree.is_cat[node]:
            go_left = tree.members[node, values.astype(int)]
        else:
            go_left = values <= tree.threshold[node]
        left_idx, right_idx = idx[go_left], idx[~go_left]
        assert len(left_idx) and len(right_idx)
        parent_var = y[idx].var()
        weighted = (
            len(left_idx) * y[left_idx].var() + len(right_idx) * y[right_idx].var()
        ) / len(idx)
        assert weighted <= parent_var + 1e-10
        recurse(tree.left[node], left_idx)
        recurse(tree.right[node], right_idx)

    recurse(0, np.arange(len(y)))
