"""One scoring path for the three strategies.

Each strategy is a generator of (rows, score block over the id-ascending
training candidates), ``rows`` indexing its user ids. A block has one row
per user, or one row that every user of the block shares: most popular
yields its units-sold row once for all users, collaborative filtering yields
factor-model rows for the users seen in training and skips the rest, and the
content-based forest yields a block for every batch of users that have
features. :func:`rank_users` ranks any such stream block by block into each
user's top-k candidate positions, breaking score ties by ascending item id
and truncating to min(k, #candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .als import FactorModel
from .data import FeatureTable, PopularityTable, id_rows, take_rows
from .errors import UnknownItem
from .forest import ForestModel, encode_entities, entity_order, predict_forest_grid

ALGORITHMS = ("MP", "CF", "CB")

# (user, candidate) pairs the forest scores at once: 2M pairs keep a CB
# batch's leaf ids and score totals at tens of MB.
_PAIR_BUDGET = 1 << 21
# (user, candidate) pairs ranked and graded at once: 64k pairs keep each
# block's scores, its top-k sort keys and the NDCG kernel's temporaries
# under about 1 MiB, so ranking never holds a users x candidates matrix.
_RANK_PAIRS = 1 << 16


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
    scored: Iterable[tuple[np.ndarray, np.ndarray]],
    k: int,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rank a strategy's (rows, block) stream, block by block.

    Yields (rows, top, ranked_by): ``ranked_by`` is a (len(rows) x n)
    block of the scores ranked, or one row ranked for every user, and
    ``top`` its int64 top min(k, n) positions, from a stable descending
    order, so equal scores fall back to ascending position (= item id). A
    user's positions in the ragged ``(indptr, positions)`` ``masks`` over
    the rows are set to ``-inf`` before ranking, always in a copy, so no
    block the scorers yield is written. A one-row block is shared: it is
    ranked once for its users without a mask, and each masked user gets a
    masked copy of the row. Every yielded block holds at most
    ``_RANK_PAIRS`` pairs, or one row when a row is wider, and a shared
    row is yielded for at most ``_RANK_PAIRS // min(k, n)`` users at once.
    """
    indptr, cols = masks or (None, None)
    for rows, block in scored:
        shared = len(block) == 1
        if shared:
            hit = indptr[rows + 1] > indptr[rows] if masks else np.zeros(len(rows), dtype=bool)
            plain, top = rows[~hit], _top_k(block, k)
            # grading keeps one sum per user and tie group (at most min(k, n))
            step = max(1, _RANK_PAIRS // max(1, top.shape[1]))
            for start in range(0, len(plain), step):
                yield plain[start : start + step], top, block
            rows = rows[hit]
        step = max(1, _RANK_PAIRS // max(1, block.shape[1]))
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            scores = np.repeat(block, len(chunk), axis=0) if shared else block[start : start + step]
            if masks:
                ptr, hide = take_rows(indptr, chunk, cols)
                if len(hide):
                    scores = scores if shared else scores.copy()
                    scores[np.repeat(np.arange(len(chunk)), np.diff(ptr)), hide] = -np.inf
            yield chunk, _top_k(scores, k), scores


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's top min(k, n) positions, ties by position.

    Equals the first min(k, n) columns of the rows' stable argsort of
    ``-scores``: a partition finds each row's m-th largest score, and only
    the columns at or above it, all of which precede the rest in that
    order, are sorted stably by (row, -score).
    """
    neg = -scores
    n_rows, n = neg.shape
    m = min(k, n)
    if m == n:
        return np.argsort(neg, axis=1, kind="stable")
    cut = np.partition(neg, m - 1, axis=1)[:, m - 1 : m]
    row, col = np.nonzero(neg <= cut)
    col = col[np.lexsort((neg[row, col], row))]
    first = np.searchsorted(row, np.arange(n_rows))
    return col[first[:, None] + np.arange(m)]


def score_mp_users(
    pop: PopularityTable, users: Sequence[str], candidates: Sequence[str]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The units-sold row, yielded once as a 1 x n block shared by every user."""
    row = np.array([[pop.quantities[i] for i in candidates]], dtype=np.float64)
    return iter([(np.arange(len(users)), row)])


def score_cf_users(
    model: FactorModel, users: Sequence[str], candidates: Sequence[str]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Factor-model blocks for training-known users; the rest are skipped.

    The candidates' factor rows are gathered once. Each user's row is one
    Yc . x_u product, so a row never depends on which other users are
    scored (one gemm over a block of users could round differently).
    """
    cand = id_rows(model.items, candidates)
    absent = np.flatnonzero(cand == len(model.items))
    if len(absent):
        raise UnknownItem(f"candidate {candidates[absent[0]]!r} was not in training")
    factors = model.item_factors[cand]
    at = id_rows(model.users, users)
    known = np.flatnonzero(at < len(model.users))  # the users the model has factors for
    step = max(1, _RANK_PAIRS // max(1, len(candidates)))
    for start in range(0, len(known), step):
        chunk = known[start : start + step]
        block = np.empty((len(chunk), len(candidates)))
        for r, u in enumerate(at[chunk]):
            block[r] = factors @ model.user_factors[u]
        yield chunk, block


def score_cb_users(
    model: ForestModel,
    users: Sequence[str],
    candidates: Sequence[str],
    user_features: FeatureTable,
    item_features: FeatureTable,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (rows, score block over candidates) from the forest.

    Encodes each side once and scores the user x candidate grid in user
    batches. A batch holds as many users as fit ``_PAIR_BUDGET`` pairs,
    which bounds its leaf ids and score totals. Batches are cut from the
    users in ``entity_order`` of their feature rows, so a batch holds
    users whose paths through the trees are alike, and ``rows`` are that
    batch's users.
    """
    enc_items = encode_entities(model.schema, item_features, "item", candidates)
    enc_users = encode_entities(model.schema, user_features, "user", users)
    batch = max(1, _PAIR_BUDGET // max(1, len(candidates)))
    order = entity_order(enc_users)
    for start in range(0, len(users), batch):
        rows = order[start : start + batch]
        yield rows, predict_forest_grid(model, enc_users[rows], enc_items)
