"""Ranking and personalization metrics: tie-aware NDCG@k with a
random-ranking baseline, sampled average-distinct@k, relative
popularity@k, and bootstrap confidence intervals.

Tie handling: items with exactly equal scores form a tie group, and the
reported NDCG is the expectation of plain NDCG over all orderings of the
tied items, computed analytically. This removes the nondeterminism that
arbitrary tie ordering would otherwise introduce.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, PopularityTable
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
    candidates: Iterable[str],
    grading: str = "graded",
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Grade test-period interactions per user, restricted to candidates.

    Gives every test user the positions in ``candidates`` of its graded
    test items (int64, in ascending item-id order) and their grades
    (float64); both are empty for a user with no graded candidate.
    Modes: ``graded`` gives 2 to items with a test sale and 1 to items
    with test views only; ``binary`` gives 1 to any interacted item;
    ``sales_only`` gives 1 to sold items and ignores views.
    """
    if grading not in GRADING_MODES:
        raise ValueError(f"grading must be one of {GRADING_MODES}, got {grading!r}")
    index = {item: p for p, item in enumerate(candidates)}
    # each test item's candidate position, -1 for an item outside them
    where = np.array([index.get(i, -1) for i in test.item_ids], dtype=np.int64)
    users, items, sold = test.pairs()
    keep = (where[items] >= 0) & (sold | (grading != "sales_only"))
    grades = np.where(sold, 2.0, 1.0) if grading == "graded" else np.ones(len(sold))
    positions, grades = where[items[keep]], grades[keep]
    cuts = np.searchsorted(users[keep], np.arange(1, len(test.user_ids)))
    return dict(zip(test.user_ids, zip(np.split(positions, cuts), np.split(grades, cuts))))


def dcg_at_k(rels_in_rank_order: Sequence[float], k: int) -> float:
    """Discounted cumulative gain of the first ``k`` relevances."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0.0
    for i, rel in enumerate(rels_in_rank_order[:k], start=1):
        total += rel / math.log2(i + 1)
    return total


@functools.lru_cache(maxsize=64)
def _discount_prefix(n: int) -> np.ndarray:
    """Prefix sums of the DCG discount: D[p] = sum_{i<=p} 1/log2(i+1).

    Cached per n (a run uses one n = min(k, #candidates)), so read-only.
    """
    disc = 1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))
    prefix = np.concatenate(([0.0], np.cumsum(disc)))
    prefix.flags.writeable = False
    return prefix


def tie_aware_ndcg_at_k(
    scores: Mapping[str, float],
    rels: Mapping[str, float],
    k: int,
) -> float | None:
    """Expected NDCG@k over all orderings of equally scored items.

    ``scores`` must cover the whole candidate set for the user; ``rels``
    holds this user's grades for (a subset of) those items. Returns None
    when the user has no relevant item (ideal DCG is zero).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    svals = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    grades = np.array([rels.get(i, 0.0) for i in scores], dtype=np.float64)
    return tie_aware_ndcg_arrays(
        svals, -np.sort(-svals)[:k], np.arange(len(svals)), grades
    )


def tie_aware_ndcg_arrays(
    svals: np.ndarray,
    top_scores: Sequence[float],
    positions: np.ndarray,
    grades: np.ndarray,
) -> float | None:
    """Tie-aware NDCG read off a ranking, at k = ``len(top_scores)``.

    ``svals`` is the vector the user was ranked by, ``top_scores`` its top
    min(k, n) scores in rank order (NDCG@k equals NDCG@n when k > n), and
    ``grades`` the user's non-negative grades at candidate ``positions``.
    Every distinct value in ``top_scores`` is one tie group, starting at
    its first rank there and spanning as many ranks as ``svals`` holds
    that value; it contributes its mean grade at every rank it covers
    above the cutoff (McSherry & Najork, ECIR 2008), so nothing over the
    candidates is sorted. Returns None when there is no candidate or no
    positive grade.
    """
    if len(svals) == 0 or not (grades > 0.0).any():
        return None
    m = len(top_scores)
    ideal = dcg_at_k(np.sort(grades)[::-1], m)
    top = np.array(top_scores, dtype=np.float64)
    starts = np.flatnonzero(np.concatenate(([True], top[1:] != top[:-1])))
    values = top[starts]
    # only the last group can reach past the top-k; the others lie inside it
    last_end = starts[-1] + np.count_nonzero(svals == values[-1])
    ends = np.concatenate((starts[1:], [last_end]))
    # a graded score below every group lands in the dropped bin len(values)
    group = np.searchsorted(-values, -svals[positions])
    grade_sums = np.bincount(group, weights=grades, minlength=len(values) + 1)
    prefix = _discount_prefix(m)
    spans = prefix[np.minimum(ends, m)] - prefix[starts]
    gains = grade_sums[:-1] / (ends - starts) * spans
    # cumsum adds the groups strictly in rank order; np.sum would pair them
    return gains.cumsum()[-1] / ideal


def random_baseline_ndcg(
    grades: np.ndarray,
    n_candidates: int,
    k: int,
) -> float | None:
    """Expected NDCG@k of a uniformly random ranking of the candidates:
    the tie-aware NDCG of all-equal scores, i.e. one tie group spanning
    the whole list, so every rank above the cutoff gets the mean grade.
    ``grades`` grade (a subset of) the candidates. Bit-identical to
    :func:`tie_aware_ndcg_arrays` on an all-zero vector."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_candidates == 0 or not (grades > 0.0).any():
        return None
    m = min(k, n_candidates)
    # summed left to right like the kernel's bincount; np.sum would pair them
    total = grades.cumsum()[-1]
    return total / n_candidates * _discount_prefix(m)[m] / dcg_at_k(np.sort(grades)[::-1], m)


def micro_average_ndcg(per_user: Iterable[float | None]) -> MicroAverage:
    """Mean NDCG over users where it is defined, reporting exclusions."""
    defined: list[float] = []
    excluded = 0
    for value in per_user:
        if value is None:
            excluded += 1
        else:
            defined.append(value)
    if not defined:
        raise AllUndefined("every user lacks relevant test items")
    return MicroAverage(
        value=float(np.mean(defined)), n_users=len(defined), n_excluded=excluded
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


def _pair_from_flat(t: int, n_users: int) -> tuple[int, int]:
    """Map a flat index in [0, C(n,2)) to the (i, j) pair with i < j.

    Pairs are ordered (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    i = int((2 * n_users - 1 - math.sqrt((2 * n_users - 1) ** 2 - 8 * t)) // 2)
    # integer fixup against sqrt rounding at row boundaries
    while i * (2 * n_users - i - 1) // 2 > t:
        i -= 1
    while (i + 1) * (2 * n_users - i - 2) // 2 <= t:
        i += 1
    j = t - i * (2 * n_users - i - 1) // 2 + i + 1
    return i, j


def _as_generator(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_pair_indices(
    n_users: int, n_pairs: int, seed: "int | np.random.Generator"
) -> list[tuple[int, int]]:
    """Draw distinct (i, j) user pairs uniformly via flat-index arithmetic."""
    total = n_users * (n_users - 1) // 2
    if n_pairs > total:
        raise ValueError("cannot draw more distinct pairs than exist")
    if n_pairs == total:
        return [_pair_from_flat(t, n_users) for t in range(total)]
    rng = _as_generator(seed)
    chosen: set[int] = set()
    flats: list[int] = []
    while len(flats) < n_pairs:
        for t in rng.integers(0, total, size=n_pairs):
            t = int(t)
            if t not in chosen:
                chosen.add(t)
                flats.append(t)
                if len(flats) == n_pairs:
                    break
    return [_pair_from_flat(t, n_users) for t in flats]


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
    i, j = np.array(sample_pair_indices(n_users, n_pairs, rng)).T
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
