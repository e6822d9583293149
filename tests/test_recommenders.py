"""MP/CF/CB score streams ranked by rank_users: the list contracts."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from oracles import scores_for_user
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
from stylebench.errors import MissingFeatures
from stylebench.forest import ForestConfig, augment_labels, fit_forest
from stylebench.metrics import avg_distinct_exact
from stylebench.recommend import (
    RankedList,
    rank_users,
    score_cb_users,
    score_cf_users,
    score_mp_users,
)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def ev(user, item, kind, hours=0, quantity=1):
    return InteractionEvent(user, item, kind, T0 + timedelta(hours=hours), quantity)


def ranked(scored, users, candidates, k):
    """(user, items, scores) per user of a stream over ``users`` ranked by
    rank_users; a one-row block's ranking stands for each of its users."""
    return [
        (users[user], tuple(candidates[i] for i in top[r % len(top)]),
         tuple(rows[r % len(rows)][top[r % len(top)]].tolist()))
        for block_users, top, rows in rank_users(scored, k)
        for r, user in enumerate(block_users)
    ]


def mp_lists(pop, users, k):
    candidates, users = sorted(pop.quantities), sorted(users)
    return ranked(score_mp_users(pop, users, candidates), users, candidates, k)


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
        lists = mp_lists(self.pop(), ["u2", "u1"], 2)
        assert [user for user, _, _ in lists] == ["u1", "u2"]
        assert all(items == ("C", "A") for _, items, _ in lists)
        assert avg_distinct_exact(np.array([items for _, items, _ in lists]), 2) == 0

    def test_scores_are_quantities(self):
        lists = mp_lists(self.pop(), ["u1"], 3)
        assert lists[0][2] == (9.0, 5.0, 3.0)


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

    def cf_lists(self, users, candidates, k):
        return ranked(score_cf_users(self.model, users, candidates), users, candidates, k)

    def test_new_user_lands_in_uncovered(self):
        users = ["u1", "stranger"]
        lists = self.cf_lists(users, sorted(self.train.items), 2)
        assert [user for user, _, _ in lists] == ["u1"]
        covered = {user for user, _, _ in lists}
        assert [u for u in users if u not in covered] == ["stranger"]

    def test_known_user_gets_descending_finite_scores(self):
        lists = self.cf_lists(["u2"], sorted(self.train.items), 3)
        scores = lists[0][2]
        assert len(scores) == 3
        assert all(np.isfinite(s) for s in scores)
        assert list(scores) == sorted(scores, reverse=True)

    def test_deterministic(self):
        a = self.cf_lists(["u1", "u2"], sorted(self.train.items), 2)
        b = self.cf_lists(["u1", "u2"], sorted(self.train.items), 2)
        assert a == b

    def test_rows_equal_per_user_products(self, monkeypatch):
        # blocks of one and two rows give every user the bits of its own
        # x_u . Y^T product over the candidates
        import stylebench.recommend as recommend

        users = ["u3", "stranger", "u1", "u2"]
        candidates = ["iC", "iA"]
        idx = np.array([self.model.items.index(i) for i in candidates])
        for budget in (1, 2 * len(candidates)):
            monkeypatch.setattr(recommend, "_RANK_PAIRS", budget)
            blocks = list(score_cf_users(self.model, users, candidates))
            assert [len(b) for _, b in blocks] == ([1, 1, 1] if budget == 1 else [2, 1])
            got = {users[r]: row for rs, b in blocks for r, row in zip(rs, b)}
            assert list(got) == ["u3", "u1", "u2"]
            for user, row in got.items():
                want = scores_for_user(self.model, user, idx)
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64))

    def test_candidate_outside_training_universe(self):
        from stylebench.errors import UnknownItem

        with pytest.raises(UnknownItem, match="'iX'"):
            self.cf_lists(["u1"], ["iA", "iX", "iB", "iW"], 2)


class TestRecommendCb:
    def setup_method(self):
        self.train = _train_dataset()
        als_cfg = AlsConfig(factors=4, iterations=5, seed=1)
        cm = build_confidence(self.train, als_cfg)
        als_model = fit_als(cm, als_cfg)
        fcfg = ForestConfig(n_trees=10, negatives_per_user=2, seed=2)
        table = augment_labels(self.train, cm, als_model, fcfg)
        self.forest = fit_forest(table, fcfg)

    def cb_lists(self, users, k, user_features=None):
        candidates, users = sorted(self.train.items), sorted(users)
        scored = score_cb_users(
            self.forest, users, candidates,
            user_features or self.train.user_features, self.train.item_features,
        )
        return ranked(scored, users, candidates, k)

    def test_every_user_covered_including_new(self):
        lists = self.cb_lists(["u9", "u1"], 2)
        assert [user for user, _, _ in lists] == ["u1", "u9"]
        assert all(len(items) == 2 for _, items, _ in lists)

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
        lists = self.cb_lists(["a", "b"], 3, users)
        assert lists[0][1] == lists[1][1]
        assert lists[0][2] == lists[1][2]

    def test_candidate_smaller_than_k(self):
        lists = self.cb_lists(["u1"], 10)
        assert len(lists[0][1]) == 3

    def test_missing_features_raise(self):
        with pytest.raises(MissingFeatures):
            self.cb_lists(["ghost"], 2)


class TestCandidateSetDiscipline:
    def test_all_lists_stay_in_candidates(self):
        train = _train_dataset()
        pop = popularity_table(train)
        candidates = sorted(train.items)
        mp = mp_lists(pop, ["u1", "u2"], 3)
        assert all(set(items) <= set(candidates) for _, items, _ in mp)

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
                users[r]: vec.tolist()
                for rs, block in recommend.score_cb_users(
                    model, users, candidates,
                    train.user_features, train.item_features,
                )
                for r, vec in zip(rs, block)
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
        batches = []

        def score():
            # blocks come in the users' feature order, so each goes to its rows
            batches.clear()
            out = np.full((len(users), len(candidates)), np.nan)
            for rows, block in recommend.score_cb_users(
                model, users, candidates, train.user_features, train.item_features
            ):
                batches.append(len(rows))
                out[rows] = block
            return out

        single = score()
        assert batches == [len(users)]
        monkeypatch.setattr(recommend, "_PAIR_BUDGET", len(candidates))
        batched = score()
        assert batches == [1] * len(users)
        assert np.array_equal(batched.view(np.uint64), single.view(np.uint64))

        enc_users = encode_entities(model.schema, train.user_features, "user", users)
        enc_items = encode_entities(model.schema, train.item_features, "item", candidates)
        rows = np.hstack([
            np.repeat(enc_users, len(candidates), axis=0),
            np.tile(enc_items, (len(users), 1)),
        ])
        expected = predict_forest(model, rows).reshape(len(users), len(candidates))
        assert np.array_equal(single.view(np.uint64), expected.view(np.uint64))
