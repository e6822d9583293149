"""Seeded synthetic-retailer generator.

Reproduces the shape of sparse fashion interaction logs: a long-tail item
popularity (Zipf with tunable exponent), an overwhelmingly unobserved
user-item matrix, a test population dominated by users with no training
history, and user/product features that are noisy views of the latent
vectors driving preference, so a content-based learner has real signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .data import Dataset, FeatureColumn, FeatureTable, _distinct_rows, _micros, _time_ordered
from .errors import InfeasibleTargets

WINDOW_START = datetime(2022, 1, 1, tzinfo=timezone.utc)
MONTH = timedelta(days=30)

_BRANDS = ("aster", "brio", "cedar", "dune", "ember")
_SHAPES = ("a_line", "bodycon", "maxi", "shift", "wrap")
_SLEEVES = ("sleeveless", "short", "three_quarter", "long")

# Internal shape knobs. Test-active users are a fixed share of the pool;
# extra train-only users thicken CF's training signal without touching
# the test segments.
_TEST_USER_FRACTION = 0.44
_TRAIN_ONLY_RATIO = 0.82
_MEAN_TRAIN_VIEWS = 1.6  # extra views beyond the guaranteed first
_MEAN_TEST_VIEWS = 1.2
_BASE_BUY_RATE = 0.3
_DIRECT_SALE_RATE = 0.1
_AFFINITY_WEIGHT = 1.2
_FEATURE_NOISE = 0.55


@dataclass(frozen=True)
class SynthConfig:
    """Generator targets; defaults mirror the published data shape."""

    n_users: int = 5000
    n_items: int = 400
    months: int = 12
    boundary_month: int = 8
    popularity_skew: float = 1.0
    target_sparsity: float = 0.99
    segment_targets: tuple[float, float, float] = (0.70, 0.22, 0.08)
    latent_dim: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 10 or self.n_items < 2:
            raise ValueError("need at least 10 users and 2 items")
        if not 1 <= self.boundary_month < self.months:
            raise ValueError("boundary_month must lie inside the window")
        if not 0 <= self.popularity_skew < math.inf:
            raise ValueError("popularity_skew must be finite and non-negative")
        if not 0.0 < self.target_sparsity < 1.0:
            raise ValueError("target_sparsity must be in (0, 1)")
        if not all(share >= 0 for share in self.segment_targets):
            raise ValueError("segment_targets must be non-negative")
        if abs(sum(self.segment_targets) - 1.0) > 1e-9:
            raise ValueError("segment_targets must sum to 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def boundary(self) -> datetime:
        return WINDOW_START + self.boundary_month * MONTH

    @property
    def window_end(self) -> datetime:
        return WINDOW_START + self.months * MONTH


def _check_feasible(cfg: SynthConfig, n_train_users: int) -> None:
    expected_events_per_user = 1.0 + _MEAN_TRAIN_VIEWS
    allowed = (1.0 - cfg.target_sparsity) * cfg.n_items
    if expected_events_per_user > allowed:
        raise InfeasibleTargets(
            f"~{expected_events_per_user:.1f} training events per active user over "
            f"{cfg.n_items} items cannot keep the unobserved share above "
            f"{cfg.target_sparsity:.2%}"
        )
    if n_train_users < 2:
        raise InfeasibleTargets(
            "segment targets leave fewer than two training-active users"
        )


def _quantile_levels(values: np.ndarray, levels: tuple[str, ...]) -> np.ndarray:
    """Bin standard-normal-ish values into len(levels) equal-width quantiles."""
    edges = np.quantile(values, np.linspace(0, 1, len(levels) + 1)[1:-1])
    codes = np.searchsorted(edges, values, side="right")
    return np.array([levels[c] for c in codes], dtype=object)


def _latent(latents: np.ndarray, j: int) -> np.ndarray:
    """Latent dimension ``j``, wrapping round when there are fewer."""
    return latents[:, j % latents.shape[1]]


def _user_feature_table(ids, latents, rng) -> FeatureTable:
    noise = rng.standard_normal(size=(len(ids), 3)) * _FEATURE_NOISE
    age = np.clip(38.0 + 9.0 * (_latent(latents, 0) + noise[:, 0]), 18.0, 80.0)
    bmi = np.clip(24.5 + 3.5 * (_latent(latents, 1) + noise[:, 1]), 15.0, 45.0)
    brand_pref = _quantile_levels(_latent(latents, 2) + noise[:, 2], _BRANDS)
    return FeatureTable(
        ids=tuple(ids),
        columns={
            "age": FeatureColumn(kind="numeric", values=np.round(age, 1)),
            "bmi": FeatureColumn(kind="numeric", values=np.round(bmi, 1)),
            "brand_pref": FeatureColumn(
                kind="categorical", values=brand_pref, vocabulary=_BRANDS
            ),
        },
    )


def _item_feature_table(ids, latents, rng) -> FeatureTable:
    noise = rng.standard_normal(size=(len(ids), 4)) * _FEATURE_NOISE
    price = np.maximum(9.99, 75.0 + 28.0 * (_latent(latents, 0) + noise[:, 0]))
    shape = _quantile_levels(_latent(latents, 1) + noise[:, 1], _SHAPES)
    sleeve = _quantile_levels(_latent(latents, 2) + noise[:, 2], _SLEEVES)
    brand = _quantile_levels(_latent(latents, 3) + noise[:, 3], _BRANDS)
    return FeatureTable(
        ids=tuple(ids),
        columns={
            "price": FeatureColumn(kind="numeric", values=np.round(price, 2)),
            "dress_shape": FeatureColumn(
                kind="categorical", values=shape, vocabulary=_SHAPES
            ),
            "sleeve_length": FeatureColumn(
                kind="categorical", values=sleeve, vocabulary=_SLEEVES
            ),
            "brand": FeatureColumn(
                kind="categorical", values=brand, vocabulary=_BRANDS
            ),
        },
    )


_SECOND = 1_000_000  # microseconds
_DAY = 86_400 * _SECOND


def generate_dataset(cfg: SynthConfig) -> Dataset:
    """Generate a full interaction log with feature sidecars.

    Per user, item choice mixes the Zipf base popularity with the user's
    latent affinity; each view converts to a sale with probability
    increasing in affinity, plus occasional direct sales. Users are
    pre-assigned to roles so the test-period segment mix lands on the
    configured proportions exactly.
    """
    rng = np.random.default_rng(cfg.seed)
    user_ids = [f"u{n:05d}" for n in range(cfg.n_users)]
    item_ids = [f"i{n:04d}" for n in range(cfg.n_items)]

    user_latents = rng.standard_normal(size=(cfg.n_users, cfg.latent_dim))
    item_latents = rng.standard_normal(size=(cfg.n_items, cfg.latent_dim))
    # constant-norm item latents keep expected traffic uniform at zero skew
    # (base popularity alone owns the long tail) without losing direction
    norms = np.linalg.norm(item_latents, axis=1, keepdims=True)
    item_latents = item_latents / norms * np.sqrt(cfg.latent_dim)
    user_features = _user_feature_table(user_ids, user_latents, rng)
    item_features = _item_feature_table(item_ids, item_latents, rng)

    # Zipf base popularity over a random item permutation
    ranks = rng.permutation(cfg.n_items) + 1
    base_pop = ranks.astype(np.float64) ** -cfg.popularity_skew
    base_pop /= base_pop.sum()

    n_test = round(_TEST_USER_FRACTION * cfg.n_users)
    p_new, p_view, _ = cfg.segment_targets
    n_new = round(p_new * n_test)
    n_view = round(p_view * n_test)
    n_sale = n_test - n_new - n_view
    n_train_only = round(_TRAIN_ONLY_RATIO * (n_view + n_sale))
    if n_test + n_train_only > cfg.n_users:
        raise InfeasibleTargets(
            f"{n_test} test users plus {n_train_only} train-only users exceed "
            f"the pool of {cfg.n_users}"
        )
    _check_feasible(cfg, n_view + n_sale + n_train_only)

    shuffled = rng.permutation(cfg.n_users)
    roles: dict[int, str] = {}
    cursor = 0
    for role, count in (
        ("new", n_new),
        ("view", n_view),
        ("sale", n_sale),
        ("train_only", n_train_only),
    ):
        for u in shuffled[cursor : cursor + count]:
            roles[int(u)] = role
        cursor += count

    # One gemm over all users, kept whole: a one-row product may round
    # differently from the same row of the full product, which would move
    # the draws.
    scores = user_latents @ item_latents.T
    scale = np.sqrt(cfg.latent_dim)
    # (user, item, sale, timestamp in microseconds, quantity), in draw order
    events: list[tuple[int, int, bool, int, int]] = []

    def draw(cdf: np.ndarray, n: int | None = None):
        """``rng.choice(len(cdf), n, p=p)`` for the cdf of ``p``: the same
        uniforms, turned into items the same way."""
        return cdf.searchsorted(rng.random(n), side="right")

    def instant(lo: int, hi: int) -> int:
        return lo + int(rng.integers(0, (hi - lo) // _SECOND)) * _SECOND

    def emit_views(u: int, affinity: np.ndarray, cdf: np.ndarray, n: int,
                   lo: int, hi: int, can_buy: bool) -> bool:
        """Append n affinity-weighted views (plus converted sales); returns
        whether any sale was emitted."""
        chosen = draw(cdf, n)
        buy_prob = _BASE_BUY_RATE / (1.0 + np.exp(-affinity[chosen]))
        bought_any = False
        for i, p_buy in zip(chosen.tolist(), buy_prob.tolist()):
            ts = instant(lo, hi)
            events.append((u, i, False, ts, 1))
            if can_buy and rng.random() < p_buy:
                sale_ts = min(ts + (int(rng.integers(0, 3)) + 1) * _DAY, hi - _SECOND)
                events.append((u, i, True, max(sale_ts, lo), 1 + int(rng.poisson(0.15))))
                bought_any = True
        if can_buy and rng.random() < _DIRECT_SALE_RATE:
            i = int(draw(cdf))
            events.append((u, i, True, instant(lo, hi), 1 + int(rng.poisson(0.15))))
            bought_any = True
        return bought_any

    start, boundary, end = map(_micros, (WINDOW_START, cfg.boundary, cfg.window_end))
    for u in sorted(roles):
        role = roles[u]
        affinity = scores[u] / scale
        weights = base_pop * np.exp(_AFFINITY_WEIGHT * affinity)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        if role in ("view", "sale", "train_only"):
            n_train_views = 1 + int(rng.poisson(_MEAN_TRAIN_VIEWS))
            bought = emit_views(u, affinity, cdf, n_train_views, start, boundary,
                                can_buy=role in ("sale", "train_only"))
            if role == "sale" and not bought:
                # force the guaranteed prior purchase
                i = int(draw(cdf))
                events.append((u, i, True, instant(start, boundary), 1))
        if role in ("new", "view", "sale"):
            n_test_views = 1 + int(rng.poisson(_MEAN_TEST_VIEWS))
            emit_views(u, affinity, cdf, n_test_views, boundary, end, can_buy=True)

    user, item, sale, timestamp, quantity = zip(*events)
    return _time_ordered(
        _distinct_rows([user_ids[u] for u in user]),
        _distinct_rows([item_ids[i] for i in item]),
        sale=np.array(sale, bool),
        quantity=np.array(quantity, np.int64),
        timestamp=np.array(timestamp, np.int64),
        user_features=user_features,
        item_features=item_features,
    )
