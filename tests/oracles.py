"""Independent reference implementations used to freeze expected values.

These deliberately take the slow, obviously-correct route (enumeration,
dense algebra) and never share code with the package under test.
"""

import itertools
import math

import numpy as np


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
