"""Recommendation facade: top-k selection, MP/CF/CB list contracts."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from stylebench.als import AlsConfig, build_confidence, fit_als
from stylebench.data import (
    Dataset,
    FeatureColumn,
    FeatureTable,
    InteractionEvent,
    Kind,
    PopularityTable,
    popularity_table,
)
from stylebench.errors import EmptyCandidates, MissingFeatures
from stylebench.forest import ForestConfig, augment_labels, fit_forest
from stylebench.metrics import symmetric_distinct
from stylebench.recommend import (
    RankedList,
    recommend_cb,
    recommend_cf,
    recommend_mp,
    top_k_select,
)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def ev(user, item, kind, hours=0, quantity=1):
    return InteractionEvent(user, item, kind, T0 + timedelta(hours=hours), quantity)


class TestTopKSelect:
    def test_plain_sort(self):
        items, scores = top_k_select({"A": 0.2, "B": 0.9, "C": 0.5}, 2)
        assert items == ("B", "C")
        assert scores == (0.9, 0.5)

    def test_tie_broken_by_id(self):
        items, _ = top_k_select({"B": 0.5, "A": 0.5}, 1)
        assert items == ("A",)

    def test_truncation(self):
        items, _ = top_k_select({"A": 1.0, "B": 2.0, "C": 3.0}, 5)
        assert len(items) == 3

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            top_k_select({}, 3)


class TestRankedListInvariants:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            RankedList("u", ("a", "a"), (1.0, 1.0), "MP")

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            RankedList("u", ("a", "b"), (0.1, 0.9), "MP")


class TestRecommendMp:
    def pop(self):
        return PopularityTable(
            quantities={"A": 5, "B": 3, "C": 9}, ranking=("C", "A", "B")
        )

    def test_identical_lists_for_all_users(self):
        lists = recommend_mp(self.pop(), ["u2", "u1"], 2)
        assert [l.user_id for l in lists] == ["u1", "u2"]
        assert all(l.items == ("C", "A") for l in lists)
        assert symmetric_distinct(lists[0], lists[1], 2) == 0

    def test_scores_are_quantities(self):
        lists = recommend_mp(self.pop(), ["u1"], 3)
        assert lists[0].scores == (9.0, 5.0, 3.0)

    def test_algorithm_tag(self):
        assert recommend_mp(self.pop(), ["u1"], 1)[0].algorithm == "MP"


def _train_dataset():
    users = FeatureTable(
        ids=("u1", "u2", "u3", "u9"),
        columns={
            "age": FeatureColumn(kind="numeric", values=np.array([30.0, 40.0, 22.0, 65.0])),
            "pref": FeatureColumn(
                kind="categorical",
                values=np.array(["x", "y", "x", "y"], dtype=object),
                vocabulary=("x", "y"),
            ),
        },
    )
    items = FeatureTable(
        ids=("iA", "iB", "iC"),
        columns={
            "price": FeatureColumn(kind="numeric", values=np.array([10.0, 25.0, 40.0]))
        },
    )
    events = [
        ev("u1", "iA", Kind.SALE, 0),
        ev("u1", "iB", Kind.VIEW, 1),
        ev("u2", "iB", Kind.SALE, 2),
        ev("u3", "iC", Kind.VIEW, 3),
        ev("u3", "iA", Kind.VIEW, 4),
    ]
    return Dataset.from_events(events, users, items)


class TestRecommendCf:
    def setup_method(self):
        self.train = _train_dataset()
        cfg = AlsConfig(factors=4, iterations=5, seed=1)
        self.model = fit_als(build_confidence(self.train, cfg), cfg)

    def test_new_user_lands_in_uncovered(self):
        lists, uncovered = recommend_cf(
            self.model, ["u1", "stranger"], sorted(self.train.items), 2
        )
        assert [l.user_id for l in lists] == ["u1"]
        assert uncovered == ["stranger"]

    def test_known_user_gets_descending_finite_scores(self):
        lists, _ = recommend_cf(self.model, ["u2"], sorted(self.train.items), 3)
        scores = lists[0].scores
        assert len(scores) == 3
        assert all(np.isfinite(s) for s in scores)
        assert list(scores) == sorted(scores, reverse=True)

    def test_deterministic(self):
        a, _ = recommend_cf(self.model, ["u1", "u2"], sorted(self.train.items), 2)
        b, _ = recommend_cf(self.model, ["u1", "u2"], sorted(self.train.items), 2)
        assert [(l.user_id, l.items, l.scores) for l in a] == [
            (l.user_id, l.items, l.scores) for l in b
        ]

    def test_candidate_outside_training_universe(self):
        from stylebench.errors import UnknownItem

        with pytest.raises(UnknownItem):
            recommend_cf(self.model, ["u1"], ["iA", "iUnseen"], 2)


class TestRecommendCb:
    def setup_method(self):
        self.train = _train_dataset()
        als_cfg = AlsConfig(factors=4, iterations=5, seed=1)
        cm = build_confidence(self.train, als_cfg)
        als_model = fit_als(cm, als_cfg)
        fcfg = ForestConfig(n_trees=10, negatives_per_user=2, seed=2)
        table = augment_labels(self.train, cm, als_model, fcfg)
        self.forest = fit_forest(table, fcfg)

    def test_every_user_covered_including_new(self):
        lists = recommend_cb(
            self.forest, ["u9", "u1"], sorted(self.train.items), 2,
            self.train.user_features, self.train.item_features,
        )
        assert [l.user_id for l in lists] == ["u1", "u9"]
        assert all(len(l.items) == 2 for l in lists)

    def test_identical_features_identical_lists(self):
        users = FeatureTable(
            ids=("a", "b"),
            columns={
                "age": FeatureColumn(kind="numeric", values=np.array([33.0, 33.0])),
                "pref": FeatureColumn(
                    kind="categorical",
                    values=np.array(["x", "x"], dtype=object),
                    vocabulary=("x", "y"),
                ),
            },
        )
        lists = recommend_cb(
            self.forest, ["a", "b"], sorted(self.train.items), 3,
            users, self.train.item_features,
        )
        assert lists[0].items == lists[1].items
        assert lists[0].scores == lists[1].scores

    def test_candidate_smaller_than_k(self):
        lists = recommend_cb(
            self.forest, ["u1"], sorted(self.train.items), 10,
            self.train.user_features, self.train.item_features,
        )
        assert len(lists[0].items) == 3

    def test_missing_features_raise(self):
        with pytest.raises(MissingFeatures):
            recommend_cb(
                self.forest, ["ghost"], sorted(self.train.items), 2,
                self.train.user_features, self.train.item_features,
            )


class TestCandidateSetDiscipline:
    def test_all_lists_stay_in_candidates(self):
        train = _train_dataset()
        pop = popularity_table(train)
        candidates = sorted(train.items)
        mp = recommend_mp(pop, ["u1", "u2"], 3)
        assert all(set(l.items) <= set(candidates) for l in mp)

    def test_cb_scores_independent_of_batch_size(self, monkeypatch):
        import stylebench.recommend as recommend
        from stylebench.als import AlsConfig, build_confidence, fit_als
        from stylebench.forest import ForestConfig, augment_labels, fit_forest

        train = _train_dataset()
        als_cfg = AlsConfig(factors=4, iterations=4, seed=1)
        cm = build_confidence(train, als_cfg)
        table = augment_labels(train, cm, fit_als(cm, als_cfg),
                               ForestConfig(n_trees=5, negatives_per_user=2, seed=3))
        model = fit_forest(table, ForestConfig(n_trees=5, negatives_per_user=2, seed=3))
        users = ["u1", "u2", "u3"]
        candidates = sorted(train.items)
        by_batch = {}
        for batch in (1, 2, 16):
            # a budget of batch x candidates pairs makes batches of `batch` users
            monkeypatch.setattr(recommend, "_PAIR_BUDGET", batch * len(candidates))
            by_batch[batch] = {
                u: vec.tolist()
                for u, vec in recommend.score_cb_users(
                    model, users, candidates,
                    train.user_features, train.item_features,
                )
            }
        assert by_batch[1] == by_batch[2] == by_batch[16]

    def test_cb_default_batches_by_pair_budget(self, monkeypatch):
        import stylebench.recommend as recommend
        from stylebench.forest import encode_entities, predict_forest

        train = _train_dataset()
        als_cfg = AlsConfig(factors=4, iterations=4, seed=1)
        cm = build_confidence(train, als_cfg)
        cfg = ForestConfig(n_trees=5, negatives_per_user=2, seed=3)
        model = fit_forest(augment_labels(train, cm, fit_als(cm, als_cfg), cfg), cfg)
        users = ["u1", "u2", "u3", "u9"]
        candidates = sorted(train.items)
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return grid(*args)

        def score():
            calls.clear()
            out = recommend.score_cb_users(
                model, users, candidates, train.user_features, train.item_features
            )
            return np.array([vec for _, vec in out])

        grid = recommend.predict_forest_grid
        monkeypatch.setattr(recommend, "predict_forest_grid", counted)
        single = score()
        assert calls == [len(users)]
        monkeypatch.setattr(recommend, "_PAIR_BUDGET", len(candidates))
        batched = score()
        assert calls == [1] * len(users)
        assert np.array_equal(batched.view(np.uint64), single.view(np.uint64))

        enc_users = encode_entities(model.schema, train.user_features, "user", users)
        enc_items = encode_entities(model.schema, train.item_features, "item", candidates)
        rows = np.hstack([
            np.repeat(enc_users, len(candidates), axis=0),
            np.tile(enc_items, (len(users), 1)),
        ])
        expected = predict_forest(model, rows).reshape(len(users), len(candidates))
        assert np.array_equal(single.view(np.uint64), expected.view(np.uint64))
