"""One scoring path for the three strategies.

Each strategy is a generator of (user, score vector over the id-ascending
training candidates): most popular yields one shared units-sold vector,
collaborative filtering yields a factor-model vector for every user seen
in training and skips the rest, and the content-based forest scores every
user that has features. :func:`rank_users` ranks any such stream into each
user's top-k candidate positions, breaking score ties by ascending item id
and truncating to min(k, #candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .als import FactorModel
from .data import FeatureTable, PopularityTable
from .errors import UnknownItem
from .forest import ForestModel, encode_entities, predict_forest_grid

ALGORITHMS = ("MP", "CF", "CB")

# (user, candidate) pairs the forest scores at once: 2M pairs keep a CB
# batch's leaf ids and score totals at tens of MB.
_PAIR_BUDGET = 1 << 21


@dataclass(frozen=True)
class RankedList:
    """A user's top-k recommendation as parallel item/score tuples, which
    the list metrics take beside a matrix of top-k item ids."""

    user_id: str
    items: tuple[str, ...]
    scores: tuple[float, ...]
    algorithm: str

    def __post_init__(self):
        if len(self.items) != len(self.scores):
            raise ValueError("items and scores must be parallel")
        if len(set(self.items)) != len(self.items):
            raise ValueError("recommended items must be distinct")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing")


def rank_users(
    scored: Iterable[tuple[str, np.ndarray]],
    k: int,
    masks: Mapping[str, np.ndarray] | None = None,
) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """Rank a strategy's (user, vector) stream.

    Yields (user, top, ranked_by): ``top`` holds the int64 positions of the
    user's top min(k, n) candidates, from a stable descending sort, so
    equal scores fall back to ascending position (= item id); ``ranked_by``
    is the vector ranked, with the user's ``masks`` positions set to
    ``-inf`` in a copy, so a shared vector is never touched. A vector
    yielded again as the same object (MP's shared vector) is sorted once:
    users without a mask share its ``top``.
    """
    masks = masks or {}
    shared = shared_top = None
    for user, vec in scored:
        exclude = masks.get(user)
        if exclude is not None and len(exclude):
            vec = vec.copy()
            vec[exclude] = -np.inf
            yield user, _top(vec, k), vec
            continue
        if vec is not shared:
            shared, shared_top = vec, _top(vec, k)
        yield user, shared_top, vec


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """The top min(k, n) positions, ties by position; a copy, so the full
    argsort is freed rather than pinned by the caller's rows."""
    return np.argsort(-scores, kind="stable")[:k].copy()


def score_mp_users(
    pop: PopularityTable, users: Sequence[str], candidates: Sequence[str]
) -> Iterator[tuple[str, np.ndarray]]:
    """The units-sold vector, shared by every user."""
    vec = np.array([pop.quantities[i] for i in candidates], dtype=np.float64)
    return ((user, vec) for user in users)


def score_cf_users(
    model: FactorModel, users: Sequence[str], candidates: Sequence[str]
) -> Iterator[tuple[str, np.ndarray]]:
    """Factor-model vectors for training-known users; the rest are skipped.

    Each user is one x_u . Y^T product, so a vector never depends on which
    other users are scored.
    """
    try:
        cand_idx = np.array([model.item_index[i] for i in candidates], dtype=np.int64)
    except KeyError as exc:
        raise UnknownItem(f"candidate {exc.args[0]!r} was not in training") from None
    return (
        (user, model.scores_for_user(user, cand_idx))
        for user in users
        if user in model.user_index
    )


def score_cb_users(
    model: ForestModel,
    users: Sequence[str],
    candidates: Sequence[str],
    user_features: FeatureTable,
    item_features: FeatureTable,
) -> Iterator[tuple[str, np.ndarray]]:
    """Yield (user_id, score vector over candidates) from the forest.

    Encodes each side once and scores the user x candidate grid in user
    batches. A batch holds as many users as fit ``_PAIR_BUDGET`` pairs,
    which bounds its leaf ids and score totals.
    """
    enc_items = encode_entities(model.schema, item_features, "item", list(candidates))
    enc_users = encode_entities(model.schema, user_features, "user", list(users))
    batch = max(1, _PAIR_BUDGET // max(1, len(candidates)))
    for start in range(0, len(users), batch):
        preds = predict_forest_grid(model, enc_users[start : start + batch], enc_items)
        yield from zip(users[start : start + batch], preds)
