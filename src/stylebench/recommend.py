"""One scoring path for the three strategies.

Each strategy is a generator of (user, score vector over the id-ascending
training candidates): most popular yields one shared units-sold vector,
collaborative filtering yields a factor-model vector for every user seen
in training and skips the rest, and the content-based forest scores every
user that has features. :func:`rank_scores` turns any such vector into a
top-k list, breaking score ties by ascending item id and truncating to
min(k, #candidates); :func:`rank_users` ranks a whole stream, and the
``recommend_*`` functions compose it with a strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .als import FactorModel
from .data import FeatureTable, PopularityTable
from .errors import EmptyCandidates, UnknownItem
from .forest import ForestModel, encode_entities, predict_forest_grid

ALGORITHMS = ("MP", "CF", "CB")

# (user, candidate) pairs the forest scores at once: 2M pairs keep a CB
# batch's leaf ids and score totals at tens of MB.
_PAIR_BUDGET = 1 << 21


@dataclass(frozen=True)
class RankedList:
    """A user's top-k recommendation: parallel item/score tuples."""

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


def rank_scores(
    user: str,
    scores: np.ndarray,
    candidates: Sequence[str],
    k: int,
    algorithm: str,
    exclude: np.ndarray | None = None,
) -> tuple[RankedList, np.ndarray]:
    """One user's top-k list from a score vector over id-ascending candidates.

    Candidates at the ``exclude`` positions score ``-inf`` (on a copy, so a
    shared vector is never touched). The stable descending sort makes equal
    scores fall back to ascending item id. Returns the list and the vector
    it was ranked by.
    """
    if exclude is not None and len(exclude):
        scores = scores.copy()
        scores[exclude] = -np.inf
    return RankedList(user, *_stable_top(scores, k, candidates), algorithm), scores


def rank_users(
    scored: Iterable[tuple[str, np.ndarray]],
    candidates: Sequence[str],
    k: int,
    algorithm: str,
    masks: Mapping[str, np.ndarray] | None = None,
) -> Iterator[tuple[RankedList, np.ndarray]]:
    """:func:`rank_scores` over a strategy's (user, vector) stream, with
    each user's ``masks`` entry as ``exclude``.

    A vector yielded again as the same object (MP's shared vector) is
    ranked once: users without a mask share its top-k items and scores.
    """
    masks = masks or {}
    shared = shared_top = None
    for user, vec in scored:
        exclude = masks.get(user)
        if exclude is not None and len(exclude):
            yield rank_scores(user, vec, candidates, k, algorithm, exclude)
            continue
        if vec is not shared:
            shared, shared_top = vec, _stable_top(vec, k, candidates)
        yield RankedList(user, *shared_top, algorithm), vec


def _stable_top(
    scores: np.ndarray, k: int, candidates: Sequence[str]
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The top min(k, n) candidates and their scores, ties by position."""
    top = np.argsort(-scores, kind="stable")[: min(k, len(scores))]
    return tuple(candidates[i] for i in top), tuple(float(scores[i]) for i in top)


def top_k_select(scores: Mapping[str, float], k: int) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The k highest-scoring items, ties broken by ascending item id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not scores:
        raise EmptyCandidates("no candidate items to rank")
    items = sorted(scores)
    vec = np.array([scores[i] for i in items], dtype=np.float64)
    ranked, _ = rank_scores("", vec, items, k, "")
    return ranked.items, ranked.scores


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


def recommend_mp(
    pop: PopularityTable, users: Sequence[str], k: int
) -> list[RankedList]:
    """The same most-popular list for every user; scores are quantities."""
    if not pop.quantities:
        raise EmptyCandidates("popularity table is empty")
    candidates = sorted(pop.quantities)
    scored = score_mp_users(pop, sorted(users), candidates)
    return [ranked for ranked, _ in rank_users(scored, candidates, k, "MP")]


def recommend_cf(
    model: FactorModel,
    users: Sequence[str],
    candidates: Sequence[str],
    k: int,
) -> tuple[list[RankedList], list[str]]:
    """Factor-model lists for training-known users; the rest are returned
    uncovered rather than silently scored."""
    candidates = sorted(candidates)
    users = sorted(users)
    scored = score_cf_users(model, users, candidates)
    lists = [ranked for ranked, _ in rank_users(scored, candidates, k, "CF")]
    return lists, [u for u in users if u not in model.user_index]


def recommend_cb(
    model: ForestModel,
    users: Sequence[str],
    candidates: Sequence[str],
    k: int,
    user_features: FeatureTable,
    item_features: FeatureTable,
) -> list[RankedList]:
    """Forest lists for every user; features stand in for history, so new
    users are covered too."""
    candidates = sorted(candidates)
    scored = score_cb_users(model, sorted(users), candidates, user_features, item_features)
    return [ranked for ranked, _ in rank_users(scored, candidates, k, "CB")]
