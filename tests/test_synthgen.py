"""Synthetic generator: determinism, shape targets, skew behavior, and
equality with the per-event generator it replaced."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import event_loop_generate_dataset
from stylebench.data import (
    Kind,
    Segment,
    dataset_stats,
    popularity_table,
    segment_users,
    temporal_split,
    write_events,
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

    @pytest.mark.parametrize("targets", [(0.5, -0.2, 0.7), (1.1, 0.0, -0.1), (-0.0001, 0.5, 0.5001)])
    def test_negative_segment_target_rejected(self, targets):
        assert sum(targets) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="non-negative"):
            SynthConfig(segment_targets=targets)

    @pytest.mark.parametrize("skew", [float("nan"), float("inf")])
    def test_non_finite_skew_rejected(self, skew):
        # NaN once put every event on the first item
        with pytest.raises(ValueError, match="popularity_skew must be finite"):
            SynthConfig(popularity_skew=skew)

    def test_negative_seed_rejected(self):
        # numpy's default_rng refuses it with its own ValueError, mid-run
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SynthConfig(seed=-5)


@pytest.mark.parametrize("latent_dim", [1, 2])
def test_fewer_latent_dims_than_features(latent_dim):
    # the feature tables read latent dimensions 0-3, wrapping round
    data = generate_dataset(small_cfg(latent_dim=latent_dim))
    assert data.n_events > 0
    assert len(data.item_features.ids) == 80


@st.composite
def synth_configs(draw):
    months = draw(st.integers(2, 14))
    low, high = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    return SynthConfig(
        n_users=draw(st.integers(10, 300)),
        n_items=draw(st.integers(2, 80)),
        months=months,
        boundary_month=draw(st.integers(1, months - 1)),
        popularity_skew=draw(st.floats(0, 2)),
        target_sparsity=draw(st.floats(0.3, 0.99)),
        segment_targets=(low, high - low, 1 - high),
        latent_dim=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _generated(generate, cfg, out: Path):
    """The Dataset and the bytes ``write_events`` writes for it, or the
    message of the InfeasibleTargets the config gets."""
    try:
        data = generate(cfg)
    except InfeasibleTargets as exc:
        return str(exc)
    write_events(data, out / "interactions.csv")
    return data, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(max_examples=80, deadline=None)
@given(cfg=synth_configs())
def test_generator_matches_event_loop_oracle(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        new.mkdir()
        old.mkdir()
        assert _generated(generate_dataset, cfg, new) == _generated(
            event_loop_generate_dataset, cfg, old
        )


class TestNumpyEquivalences:
    """The generator draws items and buy probabilities through two numpy
    identities instead of ``Generator.choice`` and a dense probability
    matrix; a numpy that breaks either fails here by name."""

    @staticmethod
    def item_probabilities(seed: int, n_items: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        base = (rng.permutation(n_items) + 1.0) ** -1.2
        weights = base / base.sum() * np.exp(1.2 * rng.standard_normal(n_items))
        return weights / weights.sum()

    @pytest.mark.parametrize("size", [None, 1, 2, 7, 64])
    def test_cdf_searchsorted_is_generator_choice(self, size):
        for seed in range(20):
            p = self.item_probabilities(seed, 2 + 97 * seed)
            cdf = p.cumsum()
            cdf /= cdf[-1]
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                drawn = cdf.searchsorted(ours.random(size), side="right")
                chosen = numpys.choice(len(p), size=size, p=p)
                assert np.shape(drawn) == np.shape(chosen)
                assert np.array_equal(drawn, chosen)
            assert ours.bit_generator.state == numpys.bit_generator.state

    def test_exp_of_gathered_entries_is_exp_of_whole_row(self):
        rng = np.random.default_rng(11)
        affinity = rng.standard_normal((40, 2003)) * 2.5
        whole = np.exp(-affinity)
        for u in range(len(affinity)):
            row = affinity[u]
            full_row = np.exp(-row)
            for n in (1, 2, 3, 5, 8, 13, 17, 33):
                chosen = rng.integers(0, row.size, n)
                gathered = np.exp(-row[chosen])
                assert np.array_equal(gathered, full_row[chosen])
                assert np.array_equal(gathered, whole[u, chosen])
