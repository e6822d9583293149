"""Ranking and personalization metrics: tie-aware NDCG@k with a
random-ranking baseline, sampled average-distinct@k, relative
popularity@k, and bootstrap confidence intervals.

Tie handling: items with exactly equal scores form a tie group, and the
reported NDCG is the expectation of plain NDCG over all orderings of the
tied items, computed analytically. This removes the nondeterminism that
arbitrary tie ordering would otherwise introduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, PopularityTable, id_rows
from .errors import AllUndefined, TooFewUsers, ZeroPopularity

if TYPE_CHECKING:  # pragma: no cover
    from .recommend import RankedList

GRADING_MODES = ("graded", "binary", "sales_only")

# resamples drawn per bootstrap chunk: bounds the (chunk, n) int64 index
# block, which one (resamples, n) draw made 177 MB for n = 22k
_BOOTSTRAP_CHUNK = 64


@dataclass(frozen=True)
class MetricValue:
    """A point estimate with dispersion and a 95% bootstrap CI."""

    point: float
    dispersion: float
    ci_low: float
    ci_high: float
    n_units: int


@dataclass(frozen=True)
class MicroAverage:
    """Mean of a per-user metric over users where it is defined."""

    value: float
    n_users: int
    n_excluded: int


def build_relevance(
    test: Dataset,
    candidates: Sequence[str],
    grading: str = "graded",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grade test-period interactions per user, restricted to candidates.

    Gives ragged ``(indptr, positions, grades)`` over the rows of
    ``test.user_ids``: row r's positions in ``candidates`` of its graded
    test items (int64, in ascending item-id order) and their grades
    (float64) run from ``indptr[r]`` to ``indptr[r + 1]``, empty for none.
    Modes: ``graded`` gives 2 to items with a test sale and 1 to items
    with test views only; ``binary`` gives 1 to any interacted item;
    ``sales_only`` gives 1 to sold items and ignores views.
    """
    if grading not in GRADING_MODES:
        raise ValueError(f"grading must be one of {GRADING_MODES}, got {grading!r}")
    # each test item's candidate position, len(candidates) for one outside them
    where = id_rows(candidates, test.item_ids)
    users, items, sold = test.pairs()
    keep = (where[items] < len(candidates)) & (sold | (grading != "sales_only"))
    grades = np.where(sold, 2.0, 1.0) if grading == "graded" else np.ones(len(sold))
    indptr = np.searchsorted(users[keep], np.arange(len(test.user_ids) + 1))
    return indptr, where[items[keep]], grades[keep]


def dcg_at_k(rels_in_rank_order: Sequence[float], k: int) -> float:
    """Discounted cumulative gain of the first ``k`` relevances."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0.0
    for i, rel in enumerate(rels_in_rank_order[:k], start=1):
        total += rel / math.log2(i + 1)
    return total


def _discount_prefix(n: int) -> np.ndarray:
    """Prefix sums of the DCG discount: D[p] = sum_{i<=p} 1/log2(i+1)."""
    disc = 1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))
    return np.concatenate(([0.0], np.cumsum(disc)))


def tie_aware_ndcg_at_k(
    scores: Mapping[str, float],
    rels: Mapping[str, float],
    k: int,
) -> float | None:
    """Expected NDCG@k over all orderings of equally scored items.

    ``scores`` must cover the whole candidate set for the user; ``rels``
    holds this user's grades for (a subset of) those items. Returns None
    when the user has no relevant item (ideal DCG is zero). One row of
    :func:`tie_aware_ndcg_arrays`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    svals = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    grades = np.array([rels.get(i, 0.0) for i in scores], dtype=np.float64)
    top = np.argsort(-svals, kind="stable")[:k]
    [value] = tie_aware_ndcg_arrays(
        svals[None, :], top[None, :], np.array([0, len(svals)]), np.arange(len(svals)), grades
    )
    return None if np.isnan(value) else value


def _ideal_dcg(owner: np.ndarray, grades: np.ndarray, n_users: int, m: int) -> np.ndarray:
    """Each user's DCG@m of its grades sorted in descending order, summed
    rank by rank from 0.0 like :func:`dcg_at_k`; 0.0 without a grade.
    ``owner`` (ascending) names the user of each grade."""
    order = np.lexsort((-grades, owner))
    owner, grades = owner[order], grades[order]
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    keep = rank < m
    owner, grades, rank = owner[keep], grades[keep], rank[keep]
    logs = np.array([math.log2(i + 2) for i in range(int(rank.max(initial=-1)) + 1)])
    return np.bincount(owner, weights=grades / logs[rank], minlength=n_users)


def tie_aware_ndcg_arrays(
    svals: np.ndarray,
    top: np.ndarray,
    indptr: np.ndarray,
    positions: np.ndarray,
    grades: np.ndarray,
) -> np.ndarray:
    """Tie-aware NDCG@m of a block of users, read off their ranking.

    ``svals`` is a (rows x n) block of the scores ranked and ``top`` its
    (rows x m) top positions in rank order, m = min(k, n) (NDCG@k equals
    NDCG@n when k > n). Ragged ``(indptr, positions, grades)``, indptr
    from 0, hold each user's non-negative grades at its candidate
    positions; the block has one row per user, or one row ranked for every
    user. Every distinct score in a row's top-m is one tie group, starting
    at its first rank there and spanning as many ranks as the row holds
    that score; it contributes its mean grade at every rank it covers above
    the cutoff (McSherry & Najork, ECIR 2008), so nothing over the
    candidates is sorted. Returns
    one float64 per user, NaN where there is no candidate or no positive
    grade.
    """
    n_rows, m = top.shape
    n_users = len(indptr) - 1
    if n_rows not in (1, n_users):
        raise ValueError(f"{n_rows} score rows for {n_users} users")
    row = np.arange(n_users) if n_rows == n_users else np.zeros(n_users, dtype=np.int64)
    owner = np.repeat(np.arange(n_users), np.diff(indptr))
    ideal = _ideal_dcg(owner, grades, n_users, m)
    out = np.full(n_users, np.nan)
    if m == 0:
        return out
    # each row's tie groups: a group starts where the top-m score changes
    tops = np.take_along_axis(svals, top, axis=1)
    first = np.ones((n_rows, m), dtype=bool)
    np.not_equal(tops[:, 1:], tops[:, :-1], out=first[:, 1:])
    group_at = first.cumsum(axis=1) - 1
    last = group_at[:, -1]
    width = int(last.max()) + 1
    # groups past a row's last one start at m and end at m + 1: one rank
    # below the cutoff, so their gain is 0 / 1 * 0.0 = +0.0
    starts = np.full((n_rows, width), m)
    at_row, at_rank = np.nonzero(first)
    starts[at_row, group_at[at_row, at_rank]] = at_rank
    ends = np.full((n_rows, width), m + 1)
    ends[:, :-1] = np.where(starts[:, 1:] < m, starts[:, 1:], m + 1)
    # only the last group can reach past the top-m; the others lie inside it
    rows = np.arange(n_rows)
    ends[rows, last] = starts[rows, last] + np.count_nonzero(svals == tops[:, -1:], axis=1)
    prefix = _discount_prefix(m)
    spans = prefix[np.minimum(ends, m)] - prefix[starts]
    # a graded position's group: its rank's group inside the top-m, the last
    # group for the last score's ties below the cutoff, else the dropped bin
    rank_of = np.full((n_rows, svals.shape[1]), m)
    rank_of[rows[:, None], top] = np.arange(m)
    r = row[owner]
    rank = rank_of[r, positions]
    group = np.where(
        rank < m,
        group_at[r, np.minimum(rank, m - 1)],
        np.where(svals[r, positions] == tops[r, -1], last[r], width),
    )
    # one bincount sums every user's grades per group in position order
    sums = np.bincount(
        owner * (width + 1) + group, weights=grades, minlength=n_users * (width + 1)
    ).reshape(n_users, width + 1)[:, :width]
    gains = sums / (ends - starts)[row] * spans[row]
    # cumsum adds the groups strictly in rank order; np.sum would pair them
    total = gains.cumsum(axis=1)[:, -1]
    defined = ideal > 0.0
    out[defined] = total[defined] / ideal[defined]
    return out


def random_baseline_ndcg(
    indptr: np.ndarray,
    grades: np.ndarray,
    n_candidates: int,
    k: int,
) -> np.ndarray:
    """Expected NDCG@k of a uniformly random ranking of the candidates, per
    user: :func:`tie_aware_ndcg_arrays` on one all-zero row, i.e. one tie
    group spanning the whole list, so every rank above the cutoff gets the
    mean grade. Ragged ``(indptr, grades)``, indptr from 0, hold each
    user's grades of (a subset of) the candidates. NaN where there is no
    candidate or no positive grade."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # every grade ties with the top score, so any in-range position will do
    top = np.arange(min(k, n_candidates))[None]
    positions = np.zeros(len(grades), dtype=np.int64)
    return tie_aware_ndcg_arrays(np.zeros((1, n_candidates)), top, indptr, positions, grades)


def micro_average_ndcg(per_user: Iterable[float | None]) -> MicroAverage:
    """Mean NDCG over users where it is defined (not None or NaN),
    reporting exclusions."""
    values = np.array(list(per_user), dtype=np.float64)
    undefined = np.isnan(values)
    if undefined.all():
        raise AllUndefined("every user lacks relevant test items")
    return MicroAverage(
        value=float(np.mean(values[~undefined])),
        n_users=int(np.count_nonzero(~undefined)),
        n_excluded=int(np.count_nonzero(undefined)),
    )


def percent_over_random(value: float, baseline: float) -> float:
    """Percent improvement of an aggregated NDCG over the random baseline."""
    if baseline <= 0.0:
        raise ValueError("random baseline must be positive")
    return 100.0 * (value - baseline) / baseline


def _item_matrix(lists: "np.ndarray | Sequence[RankedList]", k: int) -> np.ndarray:
    """Each user's top-k item ids as one row: the first k columns of a
    (users x m) matrix, or the items of RankedLists of one length stacked.
    The only place the metrics read a RankedList."""
    if isinstance(lists, np.ndarray):
        return lists[:, :k]
    return np.array([lst.items[:k] for lst in lists])


def _pair_from_flat(t: np.ndarray, n_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Map flat indices in [0, C(n,2)) to the (i, j) pairs with i < j.

    Pairs are ordered (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    t = np.asarray(t, dtype=np.int64)
    n2 = 2 * n_users
    i = ((n2 - 1 - np.sqrt((n2 - 1) ** 2 - 8 * t)) // 2).astype(np.int64)
    # integer fix-ups against sqrt rounding at row boundaries
    while (over := i * (n2 - i - 1) // 2 > t).any():
        i[over] -= 1
    while (under := (i + 1) * (n2 - i - 2) // 2 <= t).any():
        i[under] += 1
    return i, t - i * (n2 - i - 1) // 2 + i + 1


def _as_generator(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_pair_indices(
    n_users: int, n_pairs: int, seed: "int | np.random.Generator"
) -> tuple[np.ndarray, np.ndarray]:
    """Draw distinct (i, j) user pairs uniformly via flat-index arithmetic,
    as two int64 arrays.

    Draws batches of ``n_pairs`` flat indices until ``n_pairs`` distinct
    ones are seen, and keeps the first ``n_pairs`` of them in draw order.
    """
    total = n_users * (n_users - 1) // 2
    if n_pairs > total:
        raise ValueError("cannot draw more distinct pairs than exist")
    if n_pairs == total:
        return _pair_from_flat(np.arange(total), n_users)
    rng = _as_generator(seed)
    flats = np.empty(0, dtype=np.int64)
    while len(flats) < n_pairs:
        drawn = np.concatenate((flats, rng.integers(0, total, size=n_pairs)))
        # first draws of each value, in draw order; the kept ones come first
        _, first = np.unique(drawn, return_index=True)
        flats = drawn[np.sort(first)]
    return _pair_from_flat(flats[:n_pairs], n_users)


def _summarize(
    values: np.ndarray, seed: "int | np.random.Generator", resamples: int
) -> MetricValue:
    point = float(values.mean())
    sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    low, high = bootstrap_ci(values, resamples=resamples, seed=seed)
    return MetricValue(
        point=point, dispersion=sd, ci_low=low, ci_high=high, n_units=len(values)
    )


def avg_distinct_sampled(
    lists: "np.ndarray | Sequence[RankedList]",
    k: int,
    seed: int,
    resamples: int = 1000,
) -> MetricValue:
    """Mean pairwise symmetric-difference size over sampled user pairs.

    ``lists`` is a (users x m) matrix of top-k item ids, or RankedLists of
    one length. Draws ``round(U)`` distinct pairs uniformly at random (the
    expected count implied by sampling a 2/(U-1) proportion of the
    U(U-1)/2 pairs), clamped to the number of pairs that exist. Reports
    the sample SD across pairs and a percentile bootstrap CI of the mean.
    """
    top = _item_matrix(lists, k)
    n_users = len(top)
    if n_users < 2:
        raise TooFewUsers(f"need >= 2 users for pairwise distinctness, got {n_users}")
    total = n_users * (n_users - 1) // 2
    n_pairs = min(round(n_users), total)
    rng = np.random.default_rng(seed)
    i, j = sample_pair_indices(n_users, n_pairs, rng)
    # a row holds distinct items, so |A ^ B| = 2m - 2|A & B|, and the items
    # two rows share are the adjacent equal ones in their sorted concatenation
    both = np.sort(np.concatenate((top[i], top[j]), axis=1), axis=1)
    shared = np.count_nonzero(both[:, 1:] == both[:, :-1], axis=1)
    values = (2 * top.shape[1] - 2 * shared).astype(np.float64)
    return _summarize(values, seed=rng, resamples=resamples)


def avg_distinct_exact(lists: "np.ndarray | Sequence[RankedList]", k: int) -> float:
    """The mean pairwise distinctness over all U(U-1)/2 pairs: an item
    in c rows is shared by C(c, 2) of them."""
    top = _item_matrix(lists, k)
    n_users = len(top)
    if n_users < 2:
        raise TooFewUsers(f"need >= 2 users for pairwise distinctness, got {n_users}")
    _, counts = np.unique(top, return_counts=True)
    shared = int((counts * (counts - 1) // 2).sum())
    total = n_users * (n_users - 1) * top.shape[1] - 2 * shared
    return total / (n_users * (n_users - 1) / 2)


def relative_popularity(
    lists: "np.ndarray | Sequence[RankedList]",
    pop: PopularityTable,
    k: int,
    seed: int,
    resamples: int = 1000,
) -> MetricValue:
    """Mean per-user relative popularity with SD and bootstrap CI: the
    units sold of a user's top-k items over those of the k most popular
    items. ``lists`` is as for :func:`avg_distinct_sampled`."""
    top = _item_matrix(lists, k)
    if not len(top):
        raise ValueError("relative_popularity needs at least one user")
    denom = sum(pop.top_quantities(k))
    if denom == 0:
        raise ZeroPopularity("no units sold in the popularity window")
    items, where = np.unique(top, return_inverse=True)
    units = np.array([pop.quantities[i] for i in items.tolist()], dtype=np.int64)
    values = units[where].reshape(top.shape).sum(axis=1) / denom
    return _summarize(values, seed=np.random.default_rng(seed), resamples=resamples)


def bootstrap_ci(
    values: Sequence[float],
    resamples: int = 1000,
    level: float = 0.95,
    seed: "int | np.random.Generator" = 0,
) -> tuple[float, float]:
    """Percentile CI of the mean from seeded resampling with replacement."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 1:
        raise ValueError("bootstrap needs at least one value")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = _as_generator(seed)
    # _BOOTSTRAP_CHUNK resamples at a time: the same draws as one
    # (resamples, n) call, with the index block bounded
    means = np.concatenate([
        values[rng.integers(0, n, (min(_BOOTSTRAP_CHUNK, resamples - start), n))].mean(axis=1)
        for start in range(0, resamples, _BOOTSTRAP_CHUNK)
    ])
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low), float(high)
