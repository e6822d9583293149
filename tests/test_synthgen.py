"""Synthetic generator: determinism, shape targets, skew behavior."""

import pytest

from stylebench.data import (
    Kind,
    Segment,
    dataset_stats,
    popularity_table,
    segment_users,
    temporal_split,
)
from stylebench.errors import InfeasibleTargets
from stylebench.harness import short_head_curve
from stylebench.synth import SynthConfig, generate_dataset


def small_cfg(**overrides):
    # small catalogs cannot stay 99% unobserved; relax the target
    base = dict(n_users=600, n_items=80, target_sparsity=0.90, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_dataset(small_cfg())
        b = generate_dataset(small_cfg())
        assert a == b

    def test_different_seed_differs(self):
        a = generate_dataset(small_cfg(seed=1))
        b = generate_dataset(small_cfg(seed=2))
        assert a != b


class TestInvariants:
    def setup_method(self):
        self.data = generate_dataset(small_cfg())

    def test_events_sorted(self):
        stamps = [e.timestamp for e in self.data.events]
        assert stamps == sorted(stamps)

    def test_views_quantity_one(self):
        assert all(
            e.quantity == 1 for e in self.data.events if e.kind is Kind.VIEW
        )

    def test_all_events_inside_window(self):
        cfg = small_cfg()
        from stylebench.synth import WINDOW_START

        for e in self.data.events:
            assert WINDOW_START <= e.timestamp < cfg.window_end

    def test_feature_tables_cover_pool(self):
        assert len(self.data.user_features.ids) == 600
        assert len(self.data.item_features.ids) == 80
        for user in self.data.users:
            assert user in self.data.user_features.ids


class TestShapeTargets:
    def test_default_shape(self):
        cfg = SynthConfig(seed=3)
        data = generate_dataset(cfg)
        split = temporal_split(data, cfg.boundary)
        seg = segment_users(split)
        stats = dataset_stats(split, seg)
        assert stats["train"]["unobserved_pct"] >= 99.0
        segs = stats["test"]["segments"]
        assert segs["new_users"]["pct"] == pytest.approx(70.0, abs=5.0)
        assert segs["view_users"]["pct"] == pytest.approx(22.0, abs=5.0)
        assert segs["sale_users"]["pct"] == pytest.approx(8.0, abs=5.0)
        # ordering matches the published tables: new > view > sale
        assert (
            segs["new_users"]["users"]
            > segs["view_users"]["users"]
            > segs["sale_users"]["users"]
        )

    def test_segment_roles_respect_training_history(self):
        cfg = small_cfg()
        data = generate_dataset(cfg)
        split = temporal_split(data, cfg.boundary)
        seg = {u: list(Segment)[c] for u, c in zip(split.test.user_ids, segment_users(split))}
        train_sales = {
            e.user_id for e in split.train.events if e.kind is Kind.SALE
        }
        train_viewers = {
            e.user_id for e in split.train.events if e.kind is Kind.VIEW
        }
        for user, label in seg.items():
            if label.value == "sale_users":
                assert user in train_sales
            elif label.value == "view_users":
                assert user in train_viewers and user not in train_sales
            else:
                assert user not in train_sales and user not in train_viewers


class TestSkew:
    def test_short_head_fraction_decreases_with_skew(self):
        fractions = []
        for skew in (0.5, 1.0, 1.5):
            data = generate_dataset(small_cfg(n_users=1500, n_items=150,
                                              popularity_skew=skew, seed=21))
            pop = popularity_table(data)
            fractions.append(short_head_curve(pop).short_head_fraction)
        assert fractions[0] > fractions[1] > fractions[2]

    def test_zero_skew_is_near_uniform(self):
        data = generate_dataset(small_cfg(n_users=2000, n_items=100,
                                          popularity_skew=0.0, seed=9))
        pop = popularity_table(data)
        fraction = short_head_curve(pop).short_head_fraction
        assert fraction == pytest.approx(1.0 / 3.0, abs=0.12)


class TestInfeasibleTargets:
    def test_sparsity_conflict(self):
        with pytest.raises(InfeasibleTargets):
            generate_dataset(small_cfg(n_items=20, target_sparsity=0.999))

    def test_segment_proportions_validated(self):
        with pytest.raises(ValueError):
            SynthConfig(segment_targets=(0.5, 0.2, 0.2))
