"""Independent reference implementations used to freeze expected values.

These deliberately take the slow, obviously-correct route (enumeration,
dense algebra) and never share code with the package under test.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from stylebench.als import ConfidenceMatrix, FactorModel
from stylebench.data import FeatureTable, Kind, PopularityTable, Segment, SegmentAssignment
from stylebench.errors import EmptyTraining, MissingFeatures, UnknownItem, UnknownUser
from stylebench.forest import AugmentedTable, FeatureSchema, _mask_seed, encode_entities
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
    """Implicit-ALS objective with one ``math.fsum`` per observed row, then
    an ``fsum`` over the rows, the Gram term and the regularizer."""
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
    return ConfidenceMatrix(ratings=ratings, users=users, items=items, alpha=cfg.alpha)


def loop_segment_users(split):
    """Label each test-period user from training history alone.

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
    return SegmentAssignment(mapping=mapping)


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


def confidence(cm: ConfidenceMatrix, user_id: str, item_id: str) -> float:
    """Confidence for one cell; 1.0 when the pair was never observed."""
    r = cm.ratings[cm.user_index[user_id], cm.item_index[item_id]]
    return 1.0 + cm.alpha * float(r)


def scores_for_user(model: FactorModel, user_id: str, item_idx: np.ndarray) -> np.ndarray:
    """Score vector x_u . Y^T over the given item indices.

    Raises UnknownUser for users absent from training (new users).
    """
    try:
        u = model.user_index[user_id]
    except KeyError:
        raise UnknownUser(
            f"user {user_id!r} was not in training; CF cannot score new users"
        ) from None
    return model.item_factors[item_idx] @ model.user_factors[u]


def predict_scores(model: FactorModel, user_id: str, item_ids: list[str]) -> list[float]:
    """Dot-product scores x_u . y_i for the given items, in input order.

    Raises UnknownUser for users absent from training (new users) and
    UnknownItem for items outside the training item universe.
    """
    try:
        idx = np.array([model.item_index[i] for i in item_ids], dtype=np.int64)
    except KeyError as exc:
        raise UnknownItem(f"item {exc.args[0]!r} was not in training") from None
    return [float(v) for v in scores_for_user(model, user_id, idx)]


def feature_row(table: FeatureTable, entity_id: str) -> dict[str, object]:
    """One entity's feature values by column name."""
    i = table.index_of(entity_id)
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
