"""Regression random forest over user x product feature rows, trained on
labels augmented with factor-model predictions.

Observed pairs keep their implicit interaction value as the label; for a
seeded sample of unobserved pairs the label is the factor-model score
clamped to [0, 1]. Trees split numeric features on thresholds and
categorical features on level subsets, always choosing the best
variance-reducing split among a seeded random feature subset.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .als import ConfidenceMatrix, FactorModel
from .data import Dataset, FeatureTable, id_rows, read_json_object
from .errors import DataError, DegenerateTableWarning, MissingFeatures, SchemaMismatch

# Exhaustive level-subset search is exponential; above this many levels a
# split scans prefixes of the levels ordered by mean label instead.
_EXACT_SUBSET_LEVELS = 12
_ZERO_SSE = 1e-12
# A depth counts its split keys in dense per-feature bins while they number
# at most this many per key; above it (a numeric column with about one
# distinct value per row, at deep levels) it sorts the keys instead. On a
# table with an all-distinct numeric column, bins were faster up to about
# 4-6 per key and slower from 8.
_DENSE_BINS_PER_KEY = 4


@dataclass(frozen=True)
class FeatureSpec:
    """One model feature: its source table column and encoding."""

    name: str
    side: str  # "user" | "item"
    column: str
    kind: str  # "numeric" | "categorical"
    levels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class FeatureSchema:
    """Concatenated user + item feature layout shared by table and model."""

    specs: tuple[FeatureSpec, ...]

    @property
    def n_features(self) -> int:
        return len(self.specs)

    @classmethod
    def from_tables(cls, user_features: FeatureTable, item_features: FeatureTable) -> "FeatureSchema":
        specs: list[FeatureSpec] = []
        for side, table in (("user", user_features), ("item", item_features)):
            for column, col in table.columns.items():
                specs.append(
                    FeatureSpec(
                        name=f"{side}.{column}",
                        side=side,
                        column=column,
                        kind=col.kind,
                        levels=col.vocabulary,
                    )
                )
        return cls(specs=tuple(specs))

    def side_specs(self, side: str) -> list[FeatureSpec]:
        return [s for s in self.specs if s.side == side]

    def max_levels(self) -> int:
        sizes = [len(s.levels) for s in self.specs if s.levels]
        return max(sizes, default=1)


def encode_entities(
    schema: FeatureSchema, table: FeatureTable, side: str, ids: Sequence[str]
) -> np.ndarray:
    """Encode one side's features for the given ids: numeric values as-is,
    categorical values as level codes. Raises MissingFeatures for the first
    absent id, and SchemaMismatch for the first of their values that is not
    a level.
    """
    rows = id_rows(table.ids, ids)
    absent = np.flatnonzero(rows == len(table.ids))
    if len(absent):
        raise MissingFeatures(f"{side} {ids[absent[0]]!r} has no feature row")
    specs = schema.side_specs(side)
    out = np.empty((len(ids), len(specs)), dtype=np.float64)
    for j, spec in enumerate(specs):
        col = table.columns.get(spec.column)
        if col is None or col.kind != spec.kind:
            raise SchemaMismatch(f"column {spec.column!r} missing or wrong kind")
        if spec.kind == "numeric":
            out[:, j] = col.values[rows]
            continue
        values = col.values[rows]
        codes = id_rows(spec.levels, values)
        unknown = np.flatnonzero(codes == len(spec.levels))
        if len(unknown):
            raise SchemaMismatch(f"level {values[unknown[0]]!r} not in schema for {spec.name}")
        out[:, j] = codes
    return out


@dataclass(frozen=True, eq=False)
class AugmentedTable:
    """Training rows: encoded (user, item) features and augmented labels."""

    features: np.ndarray
    labels: np.ndarray
    schema: FeatureSchema


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters; features_per_split=None means ceil(p/3)."""

    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    features_per_split: int | None = None
    negatives_per_user: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("n_trees, max_depth and min_leaf must be positive")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be positive")
        if self.negatives_per_user < 1:
            raise ValueError("negatives_per_user must be positive")

    def resolved_features_per_split(self, n_features: int) -> int:
        if self.features_per_split is None:
            return math.ceil(n_features / 3)
        if self.features_per_split > n_features:
            raise ValueError(
                f"features_per_split={self.features_per_split} exceeds {n_features} features"
            )
        return self.features_per_split


@dataclass(frozen=True, eq=False)
class Tree:
    """One regression tree in flat-array form.

    ``feature`` is -1 at leaves; categorical nodes test membership of the
    level code in ``members[node]``, numeric nodes compare against
    ``threshold[node]`` (<= goes left).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    is_cat: np.ndarray
    members: np.ndarray  # (n_nodes, max_levels) bool

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True, eq=False)
class ForestModel:
    """Averaged ensemble of regression trees plus the shared schema."""

    trees: tuple[Tree, ...]
    schema: FeatureSchema
    config: ForestConfig


# ---------------------------------------------------------------------------
# Label augmentation
# ---------------------------------------------------------------------------


def augment_labels(
    train: Dataset,
    cm: ConfidenceMatrix,
    als: FactorModel,
    cfg: ForestConfig,
) -> AugmentedTable:
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

    indptr, indices, data = cm.ratings.indptr, cm.ratings.indices, cm.ratings.data
    rng = np.random.default_rng(np.random.SeedSequence([_mask_seed(cfg.seed), 0]))
    # observed rows first, user by user, then each user's sampled rows
    user_rows = [np.repeat(np.arange(len(users)), np.diff(indptr))]
    item_rows = [indices]
    labels = [data.astype(np.float64)]
    unseen = np.ones(len(items), dtype=bool)
    for u in range(len(users)):
        observed = indices[indptr[u] : indptr[u + 1]]
        unseen[observed] = False
        unobserved = np.flatnonzero(unseen)
        unseen[observed] = True
        if len(unobserved) == 0:
            continue
        n_neg = min(cfg.negatives_per_user, len(unobserved))
        sampled = rng.choice(unobserved, size=n_neg, replace=False)
        sampled.sort()
        user_rows.append(np.full(n_neg, u))
        item_rows.append(sampled)
        labels.append(np.clip(als.item_factors[sampled] @ als.user_factors[u], 0.0, 1.0))

    # a stable sort by user puts each user's sampled rows after its observed ones
    user_col = np.concatenate(user_rows)
    order = np.argsort(user_col, kind="stable")
    features = np.hstack([enc_users[user_col[order]], enc_items[np.concatenate(item_rows)[order]]])
    return AugmentedTable(
        features=features,
        labels=np.concatenate(labels)[order],
        schema=schema,
    )


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------


def _mask_seed(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, eq=False)
class _FitState:
    """What every tree of one ``fit_forest`` call reads, built once per call.

    ``codes[f]`` holds feature ``f`` of every row (feature-major, so one
    depth's gather is a flat take): a categorical feature as its level
    codes, a numeric one as the index of each value in ``values``, the
    concatenation of every numeric feature's sorted distinct values. Within
    one feature that index is a dense rank, so a split search only counts
    (node, code) keys, a threshold is the midpoint of two adjacent values
    present in the node, and rows are routed by comparing codes. Feature
    ``f``'s codes lie in ``code_lo[f]`` up to ``code_lo[f] + code_width[f]``.
    Codes are int32: each is below the table's rows x features, which passes
    2**31 only for a float64 table of more than 16 GiB.
    """

    y: np.ndarray
    cfg: ForestConfig
    n_split_features: int
    is_cat: np.ndarray
    codes: np.ndarray
    values: np.ndarray
    code_lo: np.ndarray
    code_width: np.ndarray
    max_levels: int

    @classmethod
    def build(cls, table: AugmentedTable, cfg: ForestConfig) -> "_FitState":
        x = table.features
        codes = np.empty(x.shape[::-1], dtype=np.int32)
        code_lo = np.zeros(x.shape[1], dtype=np.int64)
        code_width = np.empty(x.shape[1], dtype=np.int64)
        values: list[np.ndarray] = []
        n_values = 0
        for f, spec in enumerate(table.schema.specs):
            if spec.kind == "categorical":
                code_width[f] = len(spec.levels or ())
                # checked as floats: a cast first would wrap or warn on 1e20
                if not np.isin(x[:, f], np.arange(code_width[f])).all():
                    raise ValueError(f"feature {spec.name!r} holds values that are not level codes")
                codes[f] = x[:, f]
            else:
                distinct, rank = np.unique(x[:, f], return_inverse=True)
                codes[f] = n_values + rank
                code_lo[f], code_width[f] = n_values, len(distinct)
                values.append(distinct)
                n_values += len(distinct)
        return cls(
            y=table.labels,
            cfg=cfg,
            n_split_features=cfg.resolved_features_per_split(x.shape[1]),
            is_cat=np.array([spec.kind == "categorical" for spec in table.schema.specs]),
            codes=codes,
            values=np.concatenate(values) if values else np.empty(0),
            code_lo=code_lo,
            code_width=code_width,
            max_levels=table.schema.max_levels(),
        )


def _runs(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index of each run of equal values in sorted ``seg``, and the
    run number of every element."""
    starts = np.empty(len(seg), dtype=bool)
    starts[:1] = True
    np.not_equal(seg[1:], seg[:-1], out=starts[1:])
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def _best_prefixes(seg, kn, ks, seg_n, seg_s, min_leaf):
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
    first, run = _runs(seg)
    cum_n = np.cumsum(kn)
    cum_s = np.cumsum(ks)
    left_n = cum_n - (cum_n[first] - kn[first])[run]
    left_s = cum_s - np.concatenate(([0.0], cum_s))[first][run]
    right_n = seg_n[seg] - left_n
    ok = (left_n >= min_leaf) & (right_n >= min_leaf)
    # every key's criterion, then -inf where a side is short of min_leaf; the
    # prefix that takes a whole segment divides by zero, and is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = left_s**2 / left_n + (seg_s[seg] - left_s) ** 2 / right_n
    crit[~ok] = -np.inf
    top = np.maximum.reduceat(crit, first)
    hit = np.flatnonzero(crit == top[run])
    hit_run = run[hit]
    hit = hit[np.concatenate(([True], hit_run[1:] != hit_run[:-1]))]
    best[seg[first]] = top
    pos[seg[first]] = np.where(top > -np.inf, hit, -1)
    return best, pos


def _best_subsets(seg, code, kn, ks, seg_n, seg_s, min_leaf):
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
    first, run = _runs(seg)
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
        # the empty subset and a side with no rows divide by zero, and are masked
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = s_left**2 / n_left + (seg_s[segs, None] - s_left) ** 2 / right_n
        crit[~ok] = -np.inf
        choice = crit.argmax(axis=1)
        best[segs] = crit[np.arange(len(runs)), choice]
        left[member] = ((choice[row] >> bit[member]) & 1).astype(bool)
    big = np.flatnonzero(k[run] > _EXACT_SUBSET_LEVELS)
    if len(big):
        order = big[np.lexsort((code[big], ks[big] / kn[big], seg[big]))]
        top, last = _best_prefixes(seg[order], kn[order], ks[order], seg_n, seg_s, min_leaf)
        has = top > -np.inf
        best[has] = top[has]
        left[order] = np.arange(len(order)) <= last[seg[order]]
    return best, left


def _count_keys(state: _FitState, chosen, rows, slot, w, wy):
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
    w, wy = np.concatenate((w,) * m), np.concatenate((wy,) * m)
    seg_cat = state.is_cat[seg_feat]
    order = np.argsort(seg_cat, kind="stable")  # segments in key order
    start = np.concatenate(([0], np.cumsum(state.code_width[seg_feat[order]])))
    base = np.empty(n_seg, dtype=np.int64)
    base[order] = start[:-1] - state.code_lo[seg_feat[order]]
    bins = (np.take(base.reshape(n_cand, m).T, slot, axis=1) + codes).ravel()
    if start[-1] <= _DENSE_BINS_PER_KEY * codes.size:
        kn = np.bincount(bins, w, start[-1])
        key = np.flatnonzero(kn != 0)
        kn, ks = kn[key], np.bincount(bins, wy, start[-1])[key]
    else:
        key, inv = np.unique(bins, return_inverse=True)
        kn, ks = np.bincount(inv, w), np.bincount(inv, wy)
    seg = order[np.searchsorted(start, key, side="right") - 1]
    n_num = int(np.searchsorted(key, start[n_seg - seg_cat.sum()]))
    return seg, key - base[seg], kn, ks, n_num


def _fit_tree(state: _FitState, tree_index: int) -> Tree:
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
    rows = np.flatnonzero(mult != 0)
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
        if n_cand < n_open:  # drop the rows of nodes that cannot split
            cand_of_node = np.full(n_open, -1, dtype=np.int64)
            cand_of_node[cand] = np.arange(n_cand)
            keep = cand_of_node[slot] >= 0
            rows, w, wy, wyy = rows[keep], w[keep], wy[keep], wyy[keep]
            slot = cand_of_node[slot[keep]]

        n_seg = n_cand * m
        seg, code, kn, ks, n_num = _count_keys(state, chosen, rows, slot, w, wy)
        seg_n, seg_s = np.repeat(node_n[cand], m), np.repeat(node_s[cand], m)
        crit_num, last = _best_prefixes(
            seg[:n_num], kn[:n_num], ks[:n_num], seg_n, seg_s, cfg.min_leaf
        )
        cat_seg, cat_code = seg[n_num:], code[n_num:]
        crit_cat, left = _best_subsets(
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
        if not split.all():
            split_of_cand = np.cumsum(split) - 1
            keep = split[slot]
            rows, w, wy, wyy = rows[keep], w[keep], wy[keep], wyy[keep]
            slot = split_of_cand[slot[keep]]
        f_row = feature[nodes][slot]
        row_code = np.take(state.codes, f_row * n + rows)
        go_left = row_code <= split_code[slot]
        cat = np.flatnonzero(state.is_cat[f_row])
        go_left[cat] = np.take(split_members, slot[cat] * state.max_levels + row_code[cat])
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


def fit_forest(table: AugmentedTable, cfg: ForestConfig, threads: int = 1) -> ForestModel:
    """Train n_trees trees on seeded bootstrap resamples.

    Per-tree RNG streams derive from (seed, tree index), so the result is
    independent of scheduling and of ``threads``, which is capped at the
    CPUs this process may run on.
    """
    x, y = table.features, table.labels
    if len(y) < 2:
        raise ValueError("need at least 2 rows to fit a forest")
    if x.shape[1] < 1:
        raise ValueError("need at least 1 feature to fit a forest")
    if not np.isfinite(y).all():
        raise ValueError("labels hold non-finite values")
    for spec, finite in zip(table.schema.specs, np.isfinite(x).all(axis=0)):
        if not finite:
            raise ValueError(f"feature {spec.name!r} holds non-finite values")
    if np.ptp(y) == 0.0:
        warnings.warn(
            "all labels identical; trees degenerate to single leaves",
            DegenerateTableWarning,
            stacklevel=2,
        )
    fit = functools.partial(_fit_tree, _FitState.build(table, cfg))
    # the state is pickled once per task chunk, so one chunk per worker, and
    # one worker per chunk: a forked pool starts all its workers at once,
    # each with its own copy of the state, so no more than the usable CPUs
    chunksize = math.ceil(cfg.n_trees / max(min(threads, _usable_cpus()), 1))
    n_chunks = math.ceil(cfg.n_trees / chunksize)
    if n_chunks > 1:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            trees = tuple(pool.map(fit, range(cfg.n_trees), chunksize=chunksize))
    else:
        trees = tuple(map(fit, range(cfg.n_trees)))
    return ForestModel(trees=trees, schema=table.schema, config=cfg)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


# (row, internal node) decisions per tree that predict_forest makes at
# once: 1M keeps a batch's boolean decision table at 1 MiB per tree.
_ROW_NODE_BUDGET = 1 << 20


def predict_forest(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """Mean of per-tree predictions for each encoded feature row: the grid
    walk with every column on the user side and one featureless item.

    The walk decides every internal node for every row of a batch, so it
    takes batches of at most ``_ROW_NODE_BUDGET`` (row, internal node)
    decisions per tree. A row's score does not depend on the other rows,
    so the batches change no bit.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.schema.n_features:
        raise SchemaMismatch(
            f"expected rows of width {model.schema.n_features}, got {rows.shape}"
        )
    internal = max(int(np.count_nonzero(t.feature >= 0)) for t in model.trees)
    batch = max(1, _ROW_NODE_BUDGET // max(internal, 1))
    out = np.empty(len(rows))
    for at, block in _co_partition(model, rows, np.empty((1, 0)), batch):
        out[at] = block[:, 0]
    return out


def predict_forest_grid(
    model: ForestModel, enc_users: np.ndarray, enc_items: np.ndarray
) -> np.ndarray:
    """Mean of per-tree predictions for every (user, item) pair.

    Entry (u, i) equals ``predict_forest`` on the row ``enc_users[u]``
    followed by ``enc_items[i]``, bit for bit.
    """
    enc_users = np.asarray(enc_users, dtype=np.float64)
    enc_items = np.asarray(enc_items, dtype=np.float64)
    n_user = len(model.schema.side_specs("user"))
    widths = (n_user, model.schema.n_features - n_user)
    if enc_users.ndim != 2 or enc_items.ndim != 2 or (
        (enc_users.shape[1], enc_items.shape[1]) != widths
    ):
        raise SchemaMismatch(
            f"expected user and item rows of widths {widths}, "
            f"got {enc_users.shape} and {enc_items.shape}"
        )
    grid = np.empty((len(enc_users), len(enc_items)))
    for rows, block in _co_partition(model, enc_users, enc_items, max(1, len(enc_users))):
        grid[rows] = block
    return grid


def _co_partition(model, enc_users, enc_items, batch):
    """Yield (rows, block): the forest's mean leaf value for every pair of a
    batch of at most ``batch`` users and every item, a pair's feature row
    being the user's columns and then the item's. ``rows`` are the batch's
    positions in ``enc_users``; the block's columns follow ``enc_items``.

    Each pair gets one leaf value per tree and trees are summed in order.
    Every node tests either a user column or an item column, so each node is
    decided once per user or once per item (QuickScorer, Lucchese et al.,
    SIGIR 2015), never once per pair. Each tree then co-partitions the users
    and the items from the root down: a user-side node splits the user
    subset, an item-side node the item subset, and a leaf is the answer for
    its whole block of pairs, and a twig (a node whose two children are
    leaves) writes its block once, each entity taking its child's id. Each
    side is sorted once by ``np.lexsort`` of its rows (the last column
    primary, equal rows in the given order), so entities with equal rows
    share every path and a leaf's block is near-contiguous; the batches are
    cut from the sorted users. A categorical value that is not one of its
    feature's level codes raises SchemaMismatch.
    """
    n_user = enc_users.shape[1]
    order = [np.lexsort(e.T) if e.shape[1] else np.arange(len(e)) for e in (enc_users, enc_items)]
    back = np.empty_like(order[1])  # each given item's position in the sorted items
    back[order[1]] = np.arange(len(back))
    # each feature's column over its side's sorted entities: a numeric
    # feature's values, a categorical feature's level codes
    columns = []
    for f, spec in enumerate(model.schema.specs):
        column = enc_users[order[0], f] if f < n_user else enc_items[order[1], f - n_user]
        if spec.kind == "categorical":
            if not np.isin(column, np.arange(len(spec.levels or ()))).all():
                raise SchemaMismatch(f"feature {spec.name!r} holds values that are not level codes")
            column = column.astype(np.int64)
        columns.append(column)
    for start in range(0, len(enc_users), batch):
        rows = order[0][start : start + batch]
        total = np.zeros((len(rows), len(enc_items)), dtype=np.float64)
        leaf = np.empty(total.shape, dtype=np.intp)
        for tree in model.trees:
            # side 0 decides users, side 1 items, -1 is a leaf; the nodes of
            # side s are rows 0, 1, ... of its table, in node order, and
            # goes[s][row[node], e] is whether entity e takes the left branch
            side = np.where(tree.feature < 0, -1, tree.feature >= n_user)
            row = np.zeros(tree.n_nodes, dtype=np.int64)
            goes = []
            for s, width in enumerate(total.shape):
                nodes = np.flatnonzero(side == s)
                row[nodes] = np.arange(len(nodes))
                goes.append(np.empty((len(nodes), width), dtype=bool))
            for f in np.unique(tree.feature[side >= 0]).tolist():
                nodes = np.flatnonzero(tree.feature == f)
                column = columns[f][start : start + batch] if f < n_user else columns[f]
                if model.schema.specs[f].kind == "categorical":
                    goes[f >= n_user][row[nodes]] = tree.members[nodes][:, column]
                else:
                    with np.errstate(invalid="ignore"):  # NaN goes right
                        goes[f >= n_user][row[nodes]] = column <= tree.threshold[nodes, None]
            side, row = side.tolist(), row.tolist()
            lefts, rights = tree.left.tolist(), tree.right.tolist()
            stack = [(0, np.arange(len(rows)), np.arange(len(enc_items)))]
            while stack:
                node, users, items = stack.pop()
                s = side[node]
                if s < 0:
                    leaf[users[:, None], items] = node
                    continue
                subset = users if s == 0 else items
                left = goes[s][row[node]][subset]
                if side[lefts[node]] < 0 and side[rights[node]] < 0:
                    twig = np.where(left[:, None] if s == 0 else left, lefts[node], rights[node])
                    leaf[users[:, None], items] = twig
                    continue
                for child, part in ((lefts[node], subset[left]), (rights[node], subset[~left])):
                    if len(part):
                        stack.append((child, part, items) if s == 0 else (child, users, part))
            total += tree.value[leaf]
        block = total.take(back, axis=1)
        del total, leaf  # the caller holds the block alone while it ranks
        block /= len(model.trees)
        yield rows, block


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_forest(model: ForestModel, path: str | Path) -> None:
    """Human-inspectable JSON dump of schema, splits, and leaf values."""
    payload = {
        "kind": "forest_model",
        "schema": [asdict(s) for s in model.schema.specs],
        "config": asdict(model.config),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": [None if math.isnan(v) else v for v in t.threshold],
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": [None if math.isnan(v) else v for v in t.value],
                "cat_left": {
                    str(i): np.flatnonzero(t.members[i]).tolist()
                    for i in range(t.n_nodes)
                    if t.is_cat[i]
                },
            }
            for t in model.trees
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_forest(path: str | Path) -> ForestModel:
    """The forest saved at ``path``. A file that the walk could not follow
    raises DataError naming the file and the tree (see ``_load_tree``), and
    so does one of another kind, one with no trees, and one whose schema
    (see ``_load_schema``) or config is not one ``save_forest`` writes."""
    payload = read_json_object(path, "model")
    if payload.get("kind") != "forest_model":
        raise DataError(f"model {path} is not a serialized forest model")
    try:
        schema = _load_schema(payload["schema"])
        config = ForestConfig(**payload["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model {path} has no valid schema and config: {exc!r}") from None
    trees = payload.get("trees")
    if not isinstance(trees, list) or not trees:
        raise DataError(f"model {path} holds no trees: 'trees' must be a non-empty list")
    trees = tuple(_load_tree(t, schema, f"model {path} tree {i}") for i, t in enumerate(trees))
    return ForestModel(trees=trees, schema=schema, config=config)


def _load_schema(entries: list) -> FeatureSchema:
    """The schema a model file lists. Raises KeyError, TypeError or
    ValueError unless each entry holds the fields of a FeatureSpec, with a
    user or item side, a numeric or categorical kind and a list of level
    strings or null, and the user features come first."""
    specs = []
    for s in entries:
        levels = s["levels"]
        if levels is not None and not (
            isinstance(levels, list) and all(isinstance(v, str) for v in levels)
        ):
            raise ValueError(f"levels {levels!r} are not a list of strings")
        spec = FeatureSpec(**{**s, "levels": tuple(levels) if levels else None})
        if spec.side not in ("user", "item") or spec.kind not in ("numeric", "categorical"):
            raise ValueError(f"feature {spec.name!r} has side {spec.side!r}, kind {spec.kind!r}")
        specs.append(spec)
    sides = [spec.side for spec in specs]
    if sides != sorted(sides, key=("user", "item").index):
        raise ValueError("an item feature comes before a user feature")
    return FeatureSchema(specs=tuple(specs))


def _load_tree(t: dict, schema: FeatureSchema, where: str) -> Tree:
    """One tree of a model file. Raises DataError naming ``where`` unless
    its node lists have one length above 0, every feature is the schema's,
    each internal node's children are later nodes of the tree, each
    categorical node has its left levels (codes of its feature) and no
    other node any, numeric nodes have finite thresholds and leaves finite
    values."""
    try:
        feature, left, right = (
            np.array(t[k], dtype=np.int64) for k in ("feature", "left", "right")
        )
        threshold, value = (np.array(t[k], dtype=np.float64) for k in ("threshold", "value"))
        cat_left = {int(k): np.array(codes, dtype=np.int64) for k, codes in t["cat_left"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{where} is not a tree: {exc!r}") from None
    n_nodes = len(feature)
    if not n_nodes or feature.ndim != 1 or any(
        a.shape != (n_nodes,) for a in (threshold, left, right, value)
    ):
        raise DataError(f"{where}: its node lists are empty or differ in length")
    bad = np.flatnonzero((feature < -1) | (feature >= schema.n_features))
    if len(bad):
        raise DataError(f"{where}: node {bad[0]} tests feature {feature[bad[0]]}, not the schema's")
    internal = feature >= 0
    nodes = np.arange(n_nodes)
    later = (left > nodes) & (left < n_nodes) & (right > nodes) & (right < n_nodes)
    bad = np.flatnonzero(internal & ~later)
    if len(bad):
        raise DataError(f"{where}: node {bad[0]} has a child that is not a later node of the tree")
    # a leaf's feature, -1, reads the appended False
    is_cat = np.array([s.kind == "categorical" for s in schema.specs] + [False])[feature]
    members = np.zeros((n_nodes, schema.max_levels()), dtype=bool)
    for node in np.flatnonzero(is_cat).tolist():
        codes = cat_left.pop(node, None)
        n_levels = len(schema.specs[feature[node]].levels or ())
        if codes is None or codes.ndim != 1 or not np.isin(codes, np.arange(n_levels)).all():
            raise DataError(f"{where}: categorical node {node} has no valid cat_left level codes")
        members[node, codes] = True
    if cat_left:
        raise DataError(f"{where}: cat_left names node {min(cat_left)}, which is not categorical")
    bad = np.flatnonzero(internal & ~is_cat & ~np.isfinite(threshold))
    if len(bad):
        raise DataError(f"{where}: numeric node {bad[0]} has no finite threshold")
    bad = np.flatnonzero(~internal & ~np.isfinite(value))
    if len(bad):
        raise DataError(f"{where}: leaf {bad[0]} has no finite value")
    return Tree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        is_cat=is_cat,
        members=members,
    )
