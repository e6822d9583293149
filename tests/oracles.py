"""Independent reference implementations used to freeze expected values.

These deliberately take the slow, obviously-correct route (enumeration,
dense algebra) and never share code with the package under test.
"""

import csv
import itertools
import json
import math
from datetime import timedelta
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from stylebench.als import ConfidenceMatrix, Csr, FactorModel
from stylebench.data import (
    _RECORD_FIELDS,
    Dataset,
    FeatureColumn,
    FeatureTable,
    InteractionEvent,
    Kind,
    PopularityTable,
    Segment,
    _event_from_record,
    _numeric_cell,
    _object_without_repeats,
    _open_utf8,
)
from stylebench import synth
from stylebench.errors import InfeasibleTargets, MalformedRecord
from stylebench.errors import EmptyTraining, MissingFeatures, UnknownItem
from stylebench.forest import (
    _DENSE_BINS_PER_KEY,
    _EXACT_SUBSET_LEVELS,
    _ZERO_SSE,
    AugmentedTable,
    FeatureSchema,
    Tree,
    _FitState,
    _mask_seed,
    encode_entities,
)
from stylebench.errors import TooFewUsers, ZeroPopularity
from stylebench.metrics import GRADING_MODES, _summarize


def plain_dcg(rels, k):
    return sum(r / math.log2(i + 2) for i, r in enumerate(list(rels)[:k]))


def brute_force_tie_aware_ndcg(scores, rels, k):
    """Average plain NDCG over every ordering consistent with the scores.

    Feasible only for small instances (product of tie-group factorials).
    """
    items = list(scores)
    ideal = plain_dcg(sorted((rels.get(i, 0.0) for i in items), reverse=True), k)
    if ideal == 0.0:
        return None
    by_score = {}
    for item in items:
        by_score.setdefault(scores[item], []).append(item)
    groups = [by_score[s] for s in sorted(by_score, reverse=True)]
    total = 0.0
    count = 0
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        ranking = [item for group in arrangement for item in group]
        total += plain_dcg([rels.get(i, 0.0) for i in ranking], k) / ideal
        count += 1
    return total / count


def dense_implicit_als_user_solve(item_factors, obs_cols, obs_ratings, alpha, lam):
    """One user's normal-equations solve with the confidence matrix fully
    materialized as a dense diagonal."""
    n_items, n_f = item_factors.shape
    conf = np.ones(n_items)
    pref = np.zeros(n_items)
    for col, r in zip(obs_cols, obs_ratings):
        conf[col] = 1.0 + alpha * r
        pref[col] = 1.0
    y = item_factors
    a = y.T @ np.diag(conf) @ y + lam * np.eye(n_f)
    b = y.T @ np.diag(conf) @ pref
    return np.linalg.solve(a, b)


def dense_implicit_als_loss(x, y, observed, alpha, lam):
    """Objective over every user-item cell, summed the naive way.

    ``observed`` maps (row, col) -> implicit rating r.
    """
    total = 0.0
    n_users, n_items = x.shape[0], y.shape[0]
    for u in range(n_users):
        for i in range(n_items):
            s = float(x[u] @ y[i])
            r = observed.get((u, i))
            if r is None:
                total += s * s
            else:
                total += (1.0 + alpha * r) * (1.0 - s) ** 2
    total += lam * (float((x * x).sum()) + float((y * y).sum()))
    return total


def per_row_als_solve(mat, other, alpha, lam):
    """One half-sweep of implicit ALS, one ``np.linalg.solve`` per row with
    observed entries; rows without any stay zero. ``mat`` is a CSR matrix."""
    n_rows = mat.shape[0]
    n_f = other.shape[1]
    gram = other.T @ other
    a_base = gram + lam * np.eye(n_f)
    out = np.zeros((n_rows, n_f), dtype=np.float64)
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for row in range(n_rows):
        lo, hi = indptr[row], indptr[row + 1]
        if lo == hi:
            continue
        cols = indices[lo:hi]
        scaled = alpha * data[lo:hi]
        m = other[cols]
        a = a_base + (m.T * scaled) @ m
        b = m.T @ (1.0 + scaled)
        out[row] = np.linalg.solve(a, b)
    return out


def per_row_als_loss(x, y, mat, alpha, lam):
    """Implicit-ALS objective as one ``math.fsum``: the entries of the
    product of the two Gram matrices, lambda times each of their
    diagonals, and every observed cell's term, row by row."""
    gx, gy = x.T @ x, y.T @ y
    terms = [*(gx * gy).ravel(), *(lam * np.diag(gx)), *(lam * np.diag(gy))]
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for row in range(mat.shape[0]):
        lo, hi = indptr[row], indptr[row + 1]
        s = y[indices[lo:hi]] @ x[row]
        conf = 1.0 + alpha * data[lo:hi]
        terms.extend(conf * (1.0 - s) ** 2 - s * s)
    return math.fsum(terms)


def row_sum_als_loss(x, y, mat, alpha, lam):
    """Implicit-ALS objective with one ``math.fsum`` per observed row, then
    an ``fsum`` over the rows, the Gram term and a regularizer summed over
    the squared factor entries: the loss's earlier definition, the
    reference the one-sum loss is held within a bound of."""
    gram_term = math.fsum((x.T @ x * (y.T @ y)).ravel())
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    cell_terms = []
    for row in range(mat.shape[0]):
        lo, hi = indptr[row], indptr[row + 1]
        if lo == hi:
            continue
        s = y[indices[lo:hi]] @ x[row]
        conf = 1.0 + alpha * data[lo:hi]
        cell_terms.append(math.fsum(conf * (1.0 - s) ** 2 - s * s))
    reg = lam * (math.fsum(x.ravel() ** 2) + math.fsum(y.ravel() ** 2))
    return math.fsum([gram_term, math.fsum(cell_terms), reg])


EXACT_SUBSET_LEVELS = 12


def per_node_numeric_split(col, y, min_leaf):
    """Best threshold of one node's rows (bootstrap duplicates repeated) by
    the S_L^2/n_L + S_R^2/n_R criterion: (crit, threshold) or None."""
    n = len(col)
    order = np.argsort(col, kind="stable")
    cs = col[order]
    if cs[0] == cs[-1]:
        return None
    ys = y[order]
    left_sums = np.cumsum(ys)[:-1]
    left_n = np.arange(1, n)
    valid = (cs[1:] > cs[:-1]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
    if not valid.any():
        return None
    crit = np.where(
        valid,
        left_sums**2 / left_n + (y.sum() - left_sums) ** 2 / (n - left_n),
        -np.inf,
    )
    t = int(np.argmax(crit))
    return float(crit[t]), float((cs[t] + cs[t + 1]) / 2.0)


def per_node_categorical_split(codes, y, min_leaf):
    """Best level subset of one node's rows: every subset of the present
    levels that leaves out the top one when at most 12 levels are present,
    else prefixes of the levels ordered by mean label (ties by code).
    Returns (crit, left_codes) or None."""
    n = len(codes)
    sum_y = y.sum()
    counts = np.bincount(codes)
    sums = np.bincount(codes, weights=y)
    present = np.flatnonzero(counts)
    k = len(present)
    if k < 2:
        return None
    p_counts = counts[present].astype(np.float64)
    p_sums = sums[present]
    if k <= EXACT_SUBSET_LEVELS:
        masks = np.arange(1, 2 ** (k - 1), dtype=np.uint64)
        bits = ((masks[:, None] >> np.arange(k, dtype=np.uint64)) & 1).astype(bool)
        n_left = bits @ p_counts
        s_left = bits @ p_sums
        valid = (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            return None
        crit = np.where(
            valid,
            s_left**2 / np.maximum(n_left, 1)
            + (sum_y - s_left) ** 2 / np.maximum(n - n_left, 1),
            -np.inf,
        )
        best = int(np.argmax(crit))
        return float(crit[best]), present[bits[best]]
    order = np.lexsort((present, p_sums / p_counts))
    n_left = np.cumsum(p_counts[order])[:-1]
    s_left = np.cumsum(p_sums[order])[:-1]
    valid = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    if not valid.any():
        return None
    crit = np.where(
        valid, s_left**2 / n_left + (sum_y - s_left) ** 2 / (n - n_left), -np.inf
    )
    t = int(np.argmax(crit))
    return float(crit[t]), present[order[: t + 1]]


def per_node_best_split(x_node, y_node, features, is_cat, min_leaf):
    """Best split of one node over its chosen features, in draw order; a
    later feature must beat an earlier one strictly, and every split must
    beat the no-split criterion by more than 1e-12.
    Returns (crit, feature) or None."""
    sum_y = y_node.sum()
    best_crit = sum_y * (sum_y / len(y_node)) + 1e-12
    best = None
    for f in features:
        col = x_node[:, f]
        if is_cat[f]:
            found = per_node_categorical_split(col.astype(np.int64), y_node, min_leaf)
        else:
            found = per_node_numeric_split(col, y_node, min_leaf)
        if found is not None and found[0] > best_crit:
            best_crit = found[0]
            best = (found[0], int(f))
    return best


def brute_force_top_k(scores, k):
    """Positions of the top k scores: every position sorted by
    (-score, position), truncated to min(k, n)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[: min(k, len(scores))]


def pop_ranking_mp(pop, users, k):
    """Most-popular lists read straight off the popularity ranking:
    (user, items, quantity scores) per user in ascending user order."""
    items = tuple(pop.ranking[:k])
    scores = tuple(float(pop.quantities[i]) for i in items)
    return [(u, items, scores) for u in sorted(users)]


# Per-event loop versions of the stages that now read Dataset's integer
# columns, kept verbatim as references for them.


def loop_build_confidence(train, cfg):
    """Collapse training events into per-pair implicit ratings.

    A pair with at least one sale gets r = sale_weight regardless of
    views or units; a pair with views only gets r = 1.
    """
    if not train.events:
        raise EmptyTraining("cannot build a confidence matrix from zero events")
    users = tuple(sorted(train.users))
    items = tuple(sorted(train.items))
    user_index = {u: i for i, u in enumerate(users)}
    item_index = {m: i for i, m in enumerate(items)}
    sale_pairs: set[tuple[int, int]] = set()
    view_pairs: set[tuple[int, int]] = set()
    for e in train.events:
        cell = (user_index[e.user_id], item_index[e.item_id])
        if e.kind is Kind.SALE:
            sale_pairs.add(cell)
        else:
            view_pairs.add(cell)
    cells = sorted(sale_pairs | view_pairs)
    rows = np.array([c[0] for c in cells], dtype=np.int64)
    cols = np.array([c[1] for c in cells], dtype=np.int64)
    vals = np.array(
        [cfg.sale_weight if c in sale_pairs else 1.0 for c in cells], dtype=np.float64
    )
    ratings = sp.csr_matrix((vals, (rows, cols)), shape=(len(users), len(items)))
    return ConfidenceMatrix(ratings=as_csr(ratings), users=users, items=items, alpha=cfg.alpha)


def as_csr(mat: sp.csr_matrix) -> Csr:
    """A scipy CSR matrix's arrays as the package's ``Csr``, indices as int64."""
    return Csr(mat.indptr.astype(np.int64), mat.indices.astype(np.int64), mat.data, mat.shape)


def csr_cell(mat, row: int, col: int) -> float:
    """Entry (row, col) of a CSR matrix; 0.0 when the cell is not stored."""
    lo, hi = mat.indptr[row], mat.indptr[row + 1]
    at = np.flatnonzero(mat.indices[lo:hi] == col)
    return float(mat.data[lo + at[0]]) if at.size else 0.0


def loop_segment_users(split):
    """Label each test-period user from training history alone: {user: Segment}.

    Sale users have at least one training purchase; view users have
    training views but no sales; new users have no training activity.
    """
    train_sales: set[str] = set()
    train_views: set[str] = set()
    for e in split.train.events:
        if e.kind is Kind.SALE:
            train_sales.add(e.user_id)
        else:
            train_views.add(e.user_id)
    mapping: dict[str, Segment] = {}
    for user in split.test.users:
        if user in train_sales:
            mapping[user] = Segment.SALE
        elif user in train_views:
            mapping[user] = Segment.VIEW
        else:
            mapping[user] = Segment.NEW
    return mapping


def loop_popularity_table(data):
    """Total units sold per item, every item present (0 when never sold).

    The ranking sorts by descending quantity, then ascending item id.
    """
    quantities = {item: 0 for item in data.items}
    for e in data.events:
        if e.kind is Kind.SALE:
            quantities[e.item_id] += e.quantity
    ranking = tuple(sorted(quantities, key=lambda i: (-quantities[i], i)))
    return PopularityTable(quantities=quantities, ranking=ranking)


def loop_build_relevance(test, candidates, grading="graded"):
    """Grade test-period interactions per user, restricted to candidates.

    Modes: ``graded`` gives 2 to items with a test sale and 1 to items
    with test views only; ``binary`` gives 1 to any interacted item;
    ``sales_only`` gives 1 to sold items and ignores views.
    """
    if grading not in GRADING_MODES:
        raise ValueError(f"grading must be one of {GRADING_MODES}, got {grading!r}")
    candidate_set = set(candidates)
    sales: dict[str, set[str]] = {}
    views: dict[str, set[str]] = {}
    for e in test.events:
        if e.item_id not in candidate_set:
            continue
        bucket = sales if e.kind is Kind.SALE else views
        bucket.setdefault(e.user_id, set()).add(e.item_id)
    out: dict[str, dict[str, float]] = {user: {} for user in test.users}
    for user in test.users:
        grades = out[user]
        sold = sales.get(user, set())
        viewed = views.get(user, set())
        if grading == "graded":
            for item in sold:
                grades[item] = 2.0
            for item in viewed - sold:
                grades[item] = 1.0
        elif grading == "binary":
            for item in sold | viewed:
                grades[item] = 1.0
        else:
            for item in sold:
                grades[item] = 1.0
    return out


def ragged(*columns):
    """Lists of per-row arrays, one list per flat array and the lists of
    equal lengths, as one ragged (indptr, flat, ...) tuple."""
    indptr = np.cumsum([0] + [len(row) for row in columns[0]])
    return (indptr, *(np.concatenate(rows) if rows else np.empty(0) for rows in columns))


def row_slices(indptr, flat):
    """A ragged array's rows as a list of slices."""
    return [flat[indptr[r] : indptr[r + 1]] for r in range(len(indptr) - 1)]


def loop_purchased_in_train(train):
    bought: dict[str, set[str]] = {}
    for e in train.events:
        if e.kind is Kind.SALE:
            bought.setdefault(e.user_id, set()).add(e.item_id)
    return bought


# The per-user loop version of forest.augment_labels, kept verbatim as its
# reference.


def loop_augment_labels(train, cm, als, cfg):
    """Build the forest's training table from observed and sampled cells.

    Observed (u, i) pairs keep their implicit rating as the label. Per
    user, ``negatives_per_user`` unobserved items are drawn uniformly
    without replacement (seeded) and labeled with the factor-model score
    clamped to [0, 1].
    """
    if train.user_features is None or train.item_features is None:
        raise MissingFeatures("training dataset has no user/item feature tables")
    schema = FeatureSchema.from_tables(train.user_features, train.item_features)
    users = list(cm.users)
    items = list(cm.items)
    enc_users = encode_entities(schema, train.user_features, "user", users)
    enc_items = encode_entities(schema, train.item_features, "item", items)

    n_items = len(items)
    rng = np.random.default_rng(np.random.SeedSequence([_mask_seed(cfg.seed), 0]))
    user_rows: list[int] = []
    item_rows: list[int] = []
    labels: list[float] = []
    indptr, indices, data = cm.ratings.indptr, cm.ratings.indices, cm.ratings.data
    for u in range(len(users)):
        lo, hi = indptr[u], indptr[u + 1]
        observed = indices[lo:hi]
        for i, r in zip(observed, data[lo:hi]):
            user_rows.append(u)
            item_rows.append(int(i))
            labels.append(float(r))
        unobserved = np.setdiff1d(np.arange(n_items), observed, assume_unique=False)
        if len(unobserved) == 0:
            continue
        n_neg = min(cfg.negatives_per_user, len(unobserved))
        sampled = rng.choice(unobserved, size=n_neg, replace=False)
        sampled.sort()
        scores = als.item_factors[sampled] @ als.user_factors[u]
        clamped = np.clip(scores, 0.0, 1.0)
        for i, s in zip(sampled, clamped):
            user_rows.append(u)
            item_rows.append(int(i))
            labels.append(float(s))

    u_idx = np.array(user_rows, dtype=np.int64)
    i_idx = np.array(item_rows, dtype=np.int64)
    features = np.hstack([enc_users[u_idx], enc_items[i_idx]])
    return AugmentedTable(
        features=features,
        labels=np.array(labels, dtype=np.float64),
        schema=schema,
    )


# The per-list versions of the AD and RP kernels and the one-draw
# bootstrap, kept verbatim as references for the item-matrix metrics and
# the chunked draws.


def symmetric_distinct(list_i, list_j, k):
    """Cardinality of the symmetric difference of two users' top-k sets.

    0 when the lists agree exactly; 2k when they share nothing.
    """
    return len(set(list_i.items[:k]) ^ set(list_j.items[:k]))


def loop_avg_distinct_sampled(lists, k, seed, resamples=1000):
    """Mean pairwise symmetric-difference size over sampled user pairs,
    one set comparison per pair."""
    n_users = len(lists)
    if n_users < 2:
        raise TooFewUsers(f"need >= 2 users for pairwise distinctness, got {n_users}")
    total = n_users * (n_users - 1) // 2
    n_pairs = min(round(n_users), total)
    rng = np.random.default_rng(seed)
    pairs = loop_sample_pair_indices(n_users, n_pairs, rng)
    values = np.array(
        [symmetric_distinct(lists[i], lists[j], k) for i, j in pairs],
        dtype=np.float64,
    )
    return _summarize(values, seed=rng, resamples=resamples)


def relative_popularity_user(lst, pop, k):
    """Sales quantity of a user's top-k relative to the k most popular items."""
    denom = sum(pop.top_quantities(k))
    if denom == 0:
        raise ZeroPopularity("no units sold in the popularity window")
    numer = sum(pop.quantities[item] for item in lst.items[:k])
    return numer / denom


def one_draw_bootstrap_ci(values, resamples, level, rng):
    """Percentile CI of the mean from one (resamples, n) index draw."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    idx = rng.integers(0, n, size=(resamples, n))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return float(low), float(high)


class UnknownUser(Exception):
    """A user id absent from a trained factor model (a new user)."""


def confidence(cm: ConfidenceMatrix, user_id: str, item_id: str) -> float:
    """Confidence for one cell; 1.0 when the pair was never observed."""
    r = csr_cell(cm.ratings, cm.users.index(user_id), cm.items.index(item_id))
    return 1.0 + cm.alpha * r


def scores_for_user(model: FactorModel, user_id: str, item_idx: np.ndarray) -> np.ndarray:
    """Score vector x_u . Y^T over the given item indices.

    Raises UnknownUser for users absent from training (new users).
    """
    if user_id not in model.users:
        raise UnknownUser(f"user {user_id!r} was not in training; CF cannot score new users")
    u = model.users.index(user_id)
    return model.item_factors[item_idx] @ model.user_factors[u]


def predict_scores(model: FactorModel, user_id: str, item_ids: list[str]) -> list[float]:
    """Dot-product scores x_u . y_i for the given items, in input order.

    Raises UnknownUser for users absent from training (new users) and
    UnknownItem for items outside the training item universe.
    """
    unknown = [i for i in item_ids if i not in model.items]
    if unknown:
        raise UnknownItem(f"item {unknown[0]!r} was not in training")
    idx = np.array([model.items.index(i) for i in item_ids], dtype=np.int64)
    return [float(v) for v in scores_for_user(model, user_id, idx)]


def feature_row(table: FeatureTable, entity_id: str) -> dict[str, object]:
    """One entity's feature values by column name."""
    i = table.ids.index(entity_id)
    return {name: col.values[i] for name, col in table.columns.items()}


def tree_predict(tree, x: np.ndarray) -> np.ndarray:
    """One tree's leaf value for each feature row, walking every row from
    the root one node per round: numeric nodes send ``value <= threshold``
    left, categorical nodes the level codes in ``members``."""
    cur = np.zeros(len(x), dtype=np.int64)
    row_ids = np.arange(len(x))
    for _ in range(tree.n_nodes):
        feat = tree.feature[cur]
        internal = feat >= 0
        if not internal.any():
            break
        vals = x[row_ids, np.where(internal, feat, 0)]
        with np.errstate(invalid="ignore"):
            left = vals <= tree.threshold[cur]
        cat = tree.is_cat[cur]
        left[cat] = tree.members[cur[cat], vals[cat].astype(np.int64)]
        cur = np.where(internal, np.where(left, tree.left[cur], tree.right[cur]), cur)
    return tree.value[cur]


def forest_mean(model, x: np.ndarray) -> np.ndarray:
    """Mean of the trees' ``tree_predict`` values, summed in tree order."""
    total = np.zeros(len(x), dtype=np.float64)
    for tree in model.trees:
        total += tree_predict(tree, x)
    return total / len(model.trees)


# The per-user ranking, NDCG and random-baseline kernels and the
# one-draw-at-a-time pair sampler, kept as bit-for-bit references for the
# block kernels and the vectorized sampler.


def per_user_rank_users(scored, k, masks=None):
    """Rank a (user, vector) stream one user at a time.

    Yields (user, top, ranked_by): the positions of the top min(k, n)
    scores from a stable descending sort, and the vector ranked, with the
    user's ``masks`` positions set to ``-inf`` in a copy. A vector yielded
    again as the same object is sorted once for the users without a mask.
    """
    masks = masks or {}
    shared = shared_top = None
    for user, vec in scored:
        exclude = masks.get(user)
        if exclude is not None and len(exclude):
            vec = vec.copy()
            vec[exclude] = -np.inf
            yield user, np.argsort(-vec, kind="stable")[:k].copy(), vec
            continue
        if vec is not shared:
            shared, shared_top = vec, np.argsort(-vec, kind="stable")[:k].copy()
        yield user, shared_top, vec


def _loop_dcg(rels_in_rank_order, k):
    total = 0.0
    for i, rel in enumerate(rels_in_rank_order[:k], start=1):
        total += rel / math.log2(i + 1)
    return total


def _discount_prefix(n):
    disc = 1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))
    return np.concatenate(([0.0], np.cumsum(disc)))


def per_user_tie_aware_ndcg(svals, top_scores, positions, grades):
    """Tie-aware NDCG of one user from its ranked vector ``svals`` and top
    min(k, n) scores in rank order; None without a candidate or a positive
    grade. Each distinct top score is a tie group spanning as many ranks as
    ``svals`` holds it, contributing its mean grade above the cutoff."""
    if len(svals) == 0 or not (grades > 0.0).any():
        return None
    m = len(top_scores)
    ideal = _loop_dcg(np.sort(grades)[::-1], m)
    top = np.array(top_scores, dtype=np.float64)
    starts = np.flatnonzero(np.concatenate(([True], top[1:] != top[:-1])))
    values = top[starts]
    last_end = starts[-1] + np.count_nonzero(svals == values[-1])
    ends = np.concatenate((starts[1:], [last_end]))
    group = np.searchsorted(-values, -svals[positions])
    grade_sums = np.bincount(group, weights=grades, minlength=len(values) + 1)
    prefix = _discount_prefix(m)
    spans = prefix[np.minimum(ends, m)] - prefix[starts]
    gains = grade_sums[:-1] / (ends - starts) * spans
    return gains.cumsum()[-1] / ideal


def per_user_random_baseline(grades, n_candidates, k):
    """Expected NDCG@k of a uniformly random ranking for one user; None
    without a candidate or a positive grade."""
    if n_candidates == 0 or not (grades > 0.0).any():
        return None
    m = min(k, n_candidates)
    total = grades.cumsum()[-1]
    return total / n_candidates * _discount_prefix(m)[m] / _loop_dcg(np.sort(grades)[::-1], m)


def loop_pair_from_flat(t, n_users):
    """The (i, j) pair, i < j, at flat index ``t`` of the row-major pairs."""
    i = int((2 * n_users - 1 - math.sqrt((2 * n_users - 1) ** 2 - 8 * t)) // 2)
    while i * (2 * n_users - i - 1) // 2 > t:
        i -= 1
    while (i + 1) * (2 * n_users - i - 2) // 2 <= t:
        i += 1
    return i, t - i * (2 * n_users - i - 1) // 2 + i + 1


def loop_sample_pair_indices(n_users, n_pairs, seed):
    """Distinct user pairs: batches of ``n_pairs`` flat draws, scanned one
    draw at a time until ``n_pairs`` distinct ones are kept."""
    total = n_users * (n_users - 1) // 2
    if n_pairs > total:
        raise ValueError("cannot draw more distinct pairs than exist")
    if n_pairs == total:
        return [loop_pair_from_flat(t, n_users) for t in range(total)]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    chosen = set()
    flats = []
    while len(flats) < n_pairs:
        for t in rng.integers(0, total, size=n_pairs):
            t = int(t)
            if t not in chosen:
                chosen.add(t)
                flats.append(t)
                if len(flats) == n_pairs:
                    break
    return [loop_pair_from_flat(t, n_users) for t in flats]


# The per-record CSV and JSONL loaders that ``data.load_events``
# (interactions only) and ``data.load_feature_table`` replaced with bulk
# column checks, kept as references for their results and for the error
# each malformed file gets.


def loop_load_events(path):
    """A CSV interactions file as a Dataset, one record at a time through a
    ``csv.DictReader``; sidecars are not read."""
    path = Path(path)
    events = []
    with _open_utf8(path) as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []  # an empty file has zero events
        missing = [f for f in _RECORD_FIELDS if header and f not in header]
        if missing:
            raise MalformedRecord(path, 1, f"header missing columns {missing}")
        for name in header:
            if header.count(name) > 1:
                raise MalformedRecord(path, 1, f"column {name!r} appears twice")
        for record in reader:
            # the line the record ends on; blank lines and quoted
            # newlines make it differ from the record count
            line_no = reader.line_num
            if None in record:  # DictReader files extra cells under None
                raise MalformedRecord(
                    path, line_no,
                    f"expected {len(header)} cells, got {len(header) + len(record[None])}",
                )
            events.append(_event_from_record(record, path, line_no))
    return Dataset.from_events(events)


def loop_load_jsonl_events(path):
    """A JSONL interactions file as a Dataset, one line at a time: each
    line's object, JSON-typed values and all, through the record rules;
    sidecars are not read."""
    path = Path(path)
    events = []
    with _open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line, object_pairs_hook=_object_without_repeats)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(path, line_no, f"bad JSON: {exc}") from None
            except ValueError as exc:  # a repeated key
                raise MalformedRecord(path, line_no, str(exc)) from None
            if not isinstance(record, dict):
                raise MalformedRecord(path, line_no, "record is not an object")
            events.append(_event_from_record(record, path, line_no))
    return Dataset.from_events(events)


def loop_load_feature_table(path, id_field):
    """A feature sidecar as a FeatureTable, one row and one cell at a time."""
    path = Path(path)
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRecord(path, 1, "empty feature file") from None
        if not header or header[0].split(":")[0] != id_field:
            raise MalformedRecord(path, 1, f"first column must be {id_field!r}")
        specs = []
        for cell in header[1:]:
            name, _, tag = cell.partition(":")
            tag = tag.strip().lower()
            if any(name == seen for seen, _ in specs):
                raise MalformedRecord(path, 1, f"column {name!r} appears twice")
            if tag in ("num", "numeric"):
                specs.append((name, "numeric"))
            elif tag in ("cat", "categorical"):
                specs.append((name, "categorical"))
            else:
                raise MalformedRecord(
                    path, 1, f"column {cell!r} lacks a :num/:cat type tag"
                )
        first_line = {}
        raw_cols = [[] for _ in specs]
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) != len(specs) + 1:
                raise MalformedRecord(
                    path, line_no, f"expected {len(specs) + 1} cells, got {len(row)}"
                )
            if row[0] in first_line:
                raise MalformedRecord(
                    path, line_no, f"id {row[0]!r} repeats line {first_line[row[0]]}"
                )
            first_line[row[0]] = line_no
            for j, ((name, kind), cell) in enumerate(zip(specs, row[1:])):
                raw_cols[j].append(
                    _numeric_cell(cell, name, path, line_no) if kind == "numeric" else cell
                )
    columns = {}
    for (name, kind), raw in zip(specs, raw_cols):
        dtype = np.float64 if kind == "numeric" else object
        columns[name] = FeatureColumn(kind=kind, values=np.array(raw, dtype=dtype))
    return FeatureTable(ids=tuple(first_line), columns=columns)


# The per-event generator that ``synth.generate_dataset`` replaced: a dense
# users x items buy-probability matrix, ``Generator.choice`` per draw and one
# ``InteractionEvent`` per event through ``Dataset.from_events``. It makes
# the same RNG calls in the same order, so it gives the same Dataset. Only
# the draw loop is its own: it takes the feature tables, the feasibility
# check and the shape constants from ``synth``.


def event_loop_generate_dataset(cfg):
    rng = np.random.default_rng(cfg.seed)
    user_ids = [f"u{n:05d}" for n in range(cfg.n_users)]
    item_ids = [f"i{n:04d}" for n in range(cfg.n_items)]

    user_latents = rng.standard_normal(size=(cfg.n_users, cfg.latent_dim))
    item_latents = rng.standard_normal(size=(cfg.n_items, cfg.latent_dim))
    norms = np.linalg.norm(item_latents, axis=1, keepdims=True)
    item_latents = item_latents / norms * np.sqrt(cfg.latent_dim)
    user_features = synth._user_feature_table(user_ids, user_latents, rng)
    item_features = synth._item_feature_table(item_ids, item_latents, rng)

    ranks = rng.permutation(cfg.n_items) + 1
    base_pop = ranks.astype(np.float64) ** -cfg.popularity_skew
    base_pop /= base_pop.sum()

    n_test = round(synth._TEST_USER_FRACTION * cfg.n_users)
    p_new, p_view, _ = cfg.segment_targets
    n_new = round(p_new * n_test)
    n_view = round(p_view * n_test)
    n_sale = n_test - n_new - n_view
    n_train_only = round(synth._TRAIN_ONLY_RATIO * (n_view + n_sale))
    if n_test + n_train_only > cfg.n_users:
        raise InfeasibleTargets(
            f"{n_test} test users plus {n_train_only} train-only users exceed "
            f"the pool of {cfg.n_users}"
        )
    synth._check_feasible(cfg, n_view + n_sale + n_train_only)

    shuffled = rng.permutation(cfg.n_users)
    roles = {}
    cursor = 0
    for role, count in (("new", n_new), ("view", n_view), ("sale", n_sale),
                        ("train_only", n_train_only)):
        for u in shuffled[cursor : cursor + count]:
            roles[int(u)] = role
        cursor += count

    affinity_all = (user_latents @ item_latents.T) / np.sqrt(cfg.latent_dim)
    buy_prob_all = synth._BASE_BUY_RATE / (1.0 + np.exp(-affinity_all))

    events = []

    def item_weights(u):
        weights = base_pop * np.exp(synth._AFFINITY_WEIGHT * affinity_all[u])
        return weights / weights.sum()

    def uniform_instant(lo, hi):
        span = int((hi - lo).total_seconds())
        return lo + timedelta(seconds=int(rng.integers(0, span)))

    def emit_views(u, n, lo, hi, can_buy):
        weights = item_weights(u)
        chosen = rng.choice(cfg.n_items, size=n, replace=True, p=weights)
        bought_any = False
        for i in chosen:
            i = int(i)
            ts = uniform_instant(lo, hi)
            events.append(InteractionEvent(user_ids[u], item_ids[i], Kind.VIEW, ts, 1))
            if can_buy and rng.random() < buy_prob_all[u, i]:
                sale_ts = min(ts + timedelta(days=int(rng.integers(0, 3)) + 1),
                              hi - timedelta(seconds=1))
                qty = 1 + int(rng.poisson(0.15))
                events.append(InteractionEvent(user_ids[u], item_ids[i], Kind.SALE,
                                               max(sale_ts, lo), qty))
                bought_any = True
        if can_buy and rng.random() < synth._DIRECT_SALE_RATE:
            i = int(rng.choice(cfg.n_items, p=weights))
            ts = uniform_instant(lo, hi)
            events.append(InteractionEvent(user_ids[u], item_ids[i], Kind.SALE, ts,
                                           1 + int(rng.poisson(0.15))))
            bought_any = True
        return bought_any

    boundary, end = cfg.boundary, cfg.window_end
    for u in sorted(roles):
        role = roles[u]
        if role in ("view", "sale", "train_only"):
            n_train_views = 1 + int(rng.poisson(synth._MEAN_TRAIN_VIEWS))
            bought = emit_views(u, n_train_views, synth.WINDOW_START, boundary,
                                can_buy=role in ("sale", "train_only"))
            if role == "sale" and not bought:
                i = int(rng.choice(cfg.n_items, p=item_weights(u)))
                ts = uniform_instant(synth.WINDOW_START, boundary)
                events.append(InteractionEvent(user_ids[u], item_ids[i], Kind.SALE, ts, 1))
        if role in ("new", "view", "sale"):
            n_test_views = 1 + int(rng.poisson(synth._MEAN_TEST_VIEWS))
            emit_views(u, n_test_views, boundary, end, can_buy=True)

    return Dataset.from_events(events, user_features, item_features)


# ``forest._fit_tree`` and its helpers as they stood before their numpy
# passes were trimmed (the split criterion through boolean gathers, row
# filters at every depth, routing by 2-d fancy indexing), kept verbatim
# apart from the ``ref`` prefix of their names. ``fit_forest``'s trees must
# equal theirs as arrays.


def ref_runs(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index of each run of equal values in sorted ``seg``, and the
    run number of every element."""
    starts = np.empty(len(seg), dtype=bool)
    starts[:1] = True
    np.not_equal(seg[1:], seg[:-1], out=starts[1:])
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def ref_best_prefixes(seg, kn, ks, seg_n, seg_s, min_leaf):
    """Best "keys up to t go left" split within each run of equal ``seg``.

    ``kn``/``ks`` are the weighted row count and label sum of each key,
    ``seg_n``/``seg_s`` those of each segment. Returns per segment the
    criterion S_L^2/n_L + S_R^2/n_R (-inf when no prefix leaves ``min_leaf``
    rows on both sides) and the index of the last key sent left (-1 when
    there is none); ties go to the shortest prefix.
    """
    best = np.full(len(seg_n), -np.inf)
    pos = np.full(len(seg_n), -1, dtype=np.int64)
    if len(seg) == 0:
        return best, pos
    first, run = ref_runs(seg)
    cum_n = np.cumsum(kn)
    cum_s = np.cumsum(ks)
    left_n = cum_n - (cum_n[first] - kn[first])[run]
    left_s = cum_s - np.concatenate(([0.0], cum_s))[first][run]
    right_n = seg_n[seg] - left_n
    ok = (left_n >= min_leaf) & (right_n >= min_leaf)
    crit = np.full(len(seg), -np.inf)
    ls = left_s[ok]
    crit[ok] = ls**2 / left_n[ok] + (seg_s[seg[ok]] - ls) ** 2 / right_n[ok]
    top = np.maximum.reduceat(crit, first)
    hit = np.flatnonzero(crit == top[run])
    hit_run = run[hit]
    hit = hit[np.concatenate(([True], hit_run[1:] != hit_run[:-1]))]
    best[seg[first]] = top
    pos[seg[first]] = np.where(top > -np.inf, hit, -1)
    return best, pos


def ref_best_subsets(seg, code, kn, ks, seg_n, seg_s, min_leaf):
    """Best level-subset split within each run of equal ``seg``, whose keys
    are sorted by level code.

    A run with at most ``_EXACT_SUBSET_LEVELS`` present levels tries every
    subset that leaves out its top present level, in increasing bitmask
    order over the present levels; a longer run scans prefixes of its levels
    ordered by mean label, ties by code. Returns per segment the criterion
    (-inf when none) and, per key, whether the best subset sends it left.
    """
    best = np.full(len(seg_n), -np.inf)
    left = np.zeros(len(seg), dtype=bool)
    if len(seg) == 0:
        return best, left
    first, run = ref_runs(seg)
    k = np.diff(np.append(first, len(seg)))
    bit = np.arange(len(seg)) - first[run]
    small = np.flatnonzero((k >= 2) & (k <= _EXACT_SUBSET_LEVELS))
    # bound each chunk's runs x bitmasks tables to about 2^18 cells
    step = max(1, (1 << 18) >> (int(k[small].max(initial=1)) - 1))
    for lo in range(0, len(small), step):
        runs = small[lo : lo + step]
        width = int(k[runs].max())
        row_of_run = np.full(len(first), -1)
        row_of_run[runs] = np.arange(len(runs))
        member = np.flatnonzero(row_of_run[run] >= 0)
        row = row_of_run[run[member]]
        level_n = np.zeros((len(runs), width))
        level_s = np.zeros((len(runs), width))
        level_n[row, bit[member]] = kn[member]
        level_s[row, bit[member]] = ks[member]
        # column b of n_left/s_left sums the levels whose bit is set in b
        n_left = np.zeros((len(runs), 1 << (width - 1)))
        s_left = np.zeros_like(n_left)
        for b in range(width - 1):
            n_left[:, 1 << b : 2 << b] = n_left[:, : 1 << b] + level_n[:, b, None]
            s_left[:, 1 << b : 2 << b] = s_left[:, : 1 << b] + level_s[:, b, None]
        segs = seg[first[runs]]
        right_n = seg_n[segs, None] - n_left
        masks = np.arange(n_left.shape[1])
        ok = (
            (masks > 0)
            & (masks < (1 << (k[runs] - 1))[:, None])
            & (n_left >= min_leaf)
            & (right_n >= min_leaf)
        )
        crit = np.full(n_left.shape, -np.inf)
        sl = s_left[ok]
        crit[ok] = sl**2 / n_left[ok] + (seg_s[segs, None] - s_left)[ok] ** 2 / right_n[ok]
        choice = crit.argmax(axis=1)
        best[segs] = crit[np.arange(len(runs)), choice]
        left[member] = ((choice[row] >> bit[member]) & 1).astype(bool)
    big = np.flatnonzero(k[run] > _EXACT_SUBSET_LEVELS)
    if len(big):
        order = big[np.lexsort((code[big], ks[big] / kn[big], seg[big]))]
        top, last = ref_best_prefixes(seg[order], kn[order], ks[order], seg_n, seg_s, min_leaf)
        has = top > -np.inf
        best[has] = top[has]
        left[order] = np.arange(len(order)) <= last[seg[order]]
    return best, left


def ref_count_keys(state: _FitState, chosen, rows, slot, w, wy):
    """Weighted row count and label sum of every (segment, code) key of one
    depth, in key order.

    Row ``r`` and choice position ``j`` give one key: its segment is
    ``slot[r] * m + j``, its code that of feature ``chosen[slot[r], j]``.
    Keys sort by segment, numeric segments before categorical ones, then by
    code. Returns each key's segment and code, ``kn`` and ``ks``, and the
    number of numeric keys.

    Each segment gets a run of bins as wide as its feature's code range, so
    bins increase in key order, and as every drawn row weighs at least 1 the
    keys present are the non-empty bins. ``np.bincount`` fills them densely; a depth with more than
    ``_DENSE_BINS_PER_KEY`` bins per key finds them with ``np.unique``
    instead. Either way a key's weights are added in row order, so both give
    the same sums, bit for bit.
    """
    n_cand, m = chosen.shape
    n_seg = n_cand * m
    seg_feat = chosen.ravel()
    # (m, rows) arrays, one row per choice position: flat takes are cheaper
    # than a 2-d fancy index, and the weights become a tile, not a repeat
    feat = np.take(chosen.T, slot, axis=1)
    codes = np.take(state.codes, feat * state.codes.shape[1] + rows)
    w, wy = np.tile(w, m), np.tile(wy, m)
    seg_cat = state.is_cat[seg_feat]
    order = np.argsort(seg_cat, kind="stable")  # segments in key order
    start = np.concatenate(([0], np.cumsum(state.code_width[seg_feat[order]])))
    base = np.empty(n_seg, dtype=np.int64)
    base[order] = start[:-1] - state.code_lo[seg_feat[order]]
    bins = (np.take(base.reshape(n_cand, m).T, slot, axis=1) + codes).ravel()
    if start[-1] <= _DENSE_BINS_PER_KEY * codes.size:
        kn = np.bincount(bins, w, start[-1])
        key = np.flatnonzero(kn)
        kn, ks = kn[key], np.bincount(bins, wy, start[-1])[key]
    else:
        key, inv = np.unique(bins, return_inverse=True)
        kn, ks = np.bincount(inv, w), np.bincount(inv, wy)
    seg = order[np.searchsorted(start, key, side="right") - 1]
    n_num = int(np.searchsorted(key, start[n_seg - seg_cat.sum()]))
    return seg, key - base[seg], kn, ks, n_num


def ref_fit_tree(state: _FitState, tree_index: int) -> Tree:
    """Grow one tree level by level, searching all open nodes of a depth at
    once; nodes are numbered breadth-first.

    The tree's RNG stream draws the bootstrap first, then one feature-subset
    matrix per depth for that depth's splittable nodes in node order. The
    bootstrap becomes per-row multiplicity weights, so each depth only
    touches the distinct rows drawn.
    """
    cfg = state.cfg
    rng = np.random.default_rng(
        np.random.SeedSequence([_mask_seed(cfg.seed), 1, tree_index])
    )
    p, n = state.codes.shape
    m = state.n_split_features
    mult = np.bincount(rng.integers(0, n, size=n), minlength=n)
    rows = np.flatnonzero(mult)
    w = mult[rows].astype(np.float64)
    wy = w * state.y[rows]
    wyy = wy * state.y[rows]
    slot = np.zeros(len(rows), dtype=np.int64)  # each row's node within its depth
    n_open = 1
    levels = []
    for depth in range(cfg.max_depth + 1):
        node_n = np.bincount(slot, w, n_open)
        node_s = np.bincount(slot, wy, n_open)
        value = node_s / node_n
        baseline = node_s * value
        sse = np.bincount(slot, wyy, n_open) - baseline
        feature = np.full(n_open, -1, dtype=np.int64)
        threshold = np.full(n_open, np.nan)
        members = np.zeros((n_open, state.max_levels), dtype=bool)
        children = np.full(n_open, -1, dtype=np.int64)
        levels.append((feature, threshold, members, value, children))
        if depth == cfg.max_depth:
            break
        cand = np.flatnonzero((node_n >= 2 * cfg.min_leaf) & (sse > _ZERO_SSE))
        if len(cand) == 0:
            break
        n_cand = len(cand)
        chosen = np.argsort(rng.random((n_cand, p)), axis=1, kind="stable")[:, :m]
        cand_of_node = np.full(n_open, -1, dtype=np.int64)
        cand_of_node[cand] = np.arange(n_cand)
        keep = cand_of_node[slot] >= 0
        rows, w, wy, wyy = rows[keep], w[keep], wy[keep], wyy[keep]
        slot = cand_of_node[slot[keep]]

        n_seg = n_cand * m
        seg, code, kn, ks, n_num = ref_count_keys(state, chosen, rows, slot, w, wy)
        seg_n, seg_s = np.repeat(node_n[cand], m), np.repeat(node_s[cand], m)
        crit_num, last = ref_best_prefixes(
            seg[:n_num], kn[:n_num], ks[:n_num], seg_n, seg_s, cfg.min_leaf
        )
        cat_seg, cat_code = seg[n_num:], code[n_num:]
        crit_cat, left = ref_best_subsets(
            cat_seg, cat_code, kn[n_num:], ks[n_num:], seg_n, seg_s, cfg.min_leaf
        )
        crit = np.maximum(crit_num, crit_cat).reshape(n_cand, m)
        choice = crit.argmax(axis=1)  # first chosen feature wins ties
        split = crit[np.arange(n_cand), choice] > baseline[cand] + _ZERO_SSE
        if not split.any():
            break
        won = np.flatnonzero(split) * m + choice[split]
        t = last[won]
        numeric = t >= 0
        # the threshold lies in [below, above), so a row goes left exactly
        # when its code is at most ``code[t]`` (unused at categorical nodes)
        split_code = code[t]
        t = t[numeric]
        split_threshold = np.full(len(won), np.nan)
        below, above = state.values[code[t]], state.values[code[t + 1]]
        mid = (below + above) / 2.0
        # between adjacent doubles the midpoint can round up to ``above``
        split_threshold[numeric] = np.where(mid < above, mid, below)
        won_cat = np.zeros(n_seg, dtype=bool)
        won_cat[won] = True
        won_cat = left & won_cat[cat_seg]
        split_members = np.zeros((n_cand, state.max_levels), dtype=bool)
        split_members[cat_seg[won_cat] // m, cat_code[won_cat]] = True
        split_members = split_members[split]
        nodes = cand[split]
        feature[nodes] = chosen.ravel()[won]
        threshold[nodes] = split_threshold
        members[nodes] = split_members
        value[nodes] = np.nan
        children[nodes] = np.arange(0, 2 * len(nodes), 2)

        # route the rows of split nodes to their children
        split_of_cand = np.cumsum(split) - 1
        keep = split[slot]
        rows, w, wy, wyy = rows[keep], w[keep], wy[keep], wyy[keep]
        slot = split_of_cand[slot[keep]]
        f_row = feature[nodes][slot]
        row_code = state.codes[f_row, rows]
        go_left = row_code <= split_code[slot]
        cat = np.flatnonzero(state.is_cat[f_row])
        go_left[cat] = split_members[slot[cat], row_code[cat]]
        slot = 2 * slot + ~go_left
        n_open = 2 * len(nodes)

    feature, threshold, members, value, children = (
        np.concatenate(parts) for parts in zip(*levels)
    )
    sizes = [len(level[0]) for level in levels]
    next_depth_start = np.repeat(np.cumsum(sizes), sizes)
    internal = feature >= 0
    left = np.where(internal, next_depth_start + children, -1)
    return Tree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=np.where(internal, left + 1, -1),
        value=value,
        is_cat=state.is_cat[np.maximum(feature, 0)] & internal,
        members=members,
    )
