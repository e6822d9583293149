"""End-to-end evaluation pipeline.

Runs split -> segmentation -> training -> recommendation -> metrics and
assembles the per-(segment x algorithm x metric) report grid, plus the
short-head sales analysis. Every random choice flows from the master
seed, so reruns (at any thread count) produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable

import numpy as np

from . import als as als_mod
from . import forest as forest_mod
from .data import (
    Dataset,
    PopularityTable,
    Segment,
    dataset_stats,
    format_timestamp,
    parse_timestamp,
    popularity_table,
    segment_users,
    temporal_split,
)
from .errors import AllUndefined, DataError, MissingFeatures, StylebenchError, ZeroSales
from .metrics import (
    GRADING_MODES,
    avg_distinct_sampled,
    build_relevance,
    micro_average_ndcg,
    percent_over_random,
    random_baseline_ndcg,
    relative_popularity,
    tie_aware_ndcg_arrays,
)
from .recommend import (
    ALGORITHMS,
    rank_users,
    score_cb_users,
    score_cf_users,
    score_mp_users,
)

SEGMENT_ROWS = ("sale_users", "view_users", "new_users", "average")
METRICS = ("ndcg", "ad", "rp")
REPORT_FORMATS = ("json", "csv", "markdown")

# flat config key -> (EvalConfig attribute holding the field, or None for
# EvalConfig itself; field name). Defaults live only in the dataclasses.
CONFIG_KEYS: dict[str, tuple[str | None, str]] = {
    "boundary": (None, "boundary"),
    "k": (None, "k"),
    "seed": (None, "seed"),
    "grading": (None, "grading"),
    "algorithms": (None, "algorithms"),
    "exclude_purchased": (None, "exclude_purchased"),
    "bootstrap_resamples": (None, "bootstrap_resamples"),
    "threads": (None, "threads"),
    "als_factors": ("als", "factors"),
    "als_regularization": ("als", "regularization"),
    "als_alpha": ("als", "alpha"),
    "als_sale_weight": ("als", "sale_weight"),
    "als_iterations": ("als", "iterations"),
    "forest_trees": ("forest", "n_trees"),
    "forest_max_depth": ("forest", "max_depth"),
    "forest_min_leaf": ("forest", "min_leaf"),
    "forest_features_per_split": ("forest", "features_per_split"),
    "forest_negatives_per_user": ("forest", "negatives_per_user"),
}


def derive_seed(master: int, *tokens) -> int:
    """Stable named sub-seed: hash of the master seed and a token path."""
    digest = hashlib.sha256(repr((master,) + tokens).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def typed_config_value(key: str, value, hint):
    """``value`` checked against the type hint of the field ``key`` sets.

    Bools must be bools and ints must be ints that are not bools; a float
    field also takes an int (returned as float), an ``X | None`` field
    takes null, and a tuple field takes a list. Raises ValueError naming
    the key.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        if value is None and type(None) in args:
            return None
        hint, args = args[0], typing.get_args(args[0])
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and all(isinstance(v, args[0]) for v in value):
            return tuple(value)
    elif hint is bool or not isinstance(value, bool):
        if isinstance(value, hint):
            return value
        if hint is float and isinstance(value, int):
            return float(value)
    name = getattr(hint, "__name__", str(hint))
    raise ValueError(f"config key {key!r} must be {name}, got {value!r}")


@dataclass(frozen=True)
class EvalConfig:
    """Everything one evaluation run depends on."""

    boundary: datetime | None = None
    k: int = 10
    seed: int = 0
    grading: str = "graded"
    algorithms: tuple[str, ...] = ALGORITHMS
    exclude_purchased: bool = False
    bootstrap_resamples: int = 1000
    threads: int = 1
    als: als_mod.AlsConfig = field(default_factory=als_mod.AlsConfig)
    forest: forest_mod.ForestConfig = field(default_factory=forest_mod.ForestConfig)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.grading not in GRADING_MODES:
            raise ValueError(f"grading must be one of {GRADING_MODES}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.bootstrap_resamples < 1:
            raise ValueError("bootstrap_resamples must be >= 1")

    def to_dict(self) -> dict:
        out = {
            key: getattr(getattr(self, sub) if sub else self, name)
            for key, (sub, name) in CONFIG_KEYS.items()
        }
        out["boundary"] = format_timestamp(self.boundary) if self.boundary else None
        out["algorithms"] = list(self.algorithms)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalConfig":
        unknown = set(raw) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        raw = dict(raw)
        if isinstance(raw.get("boundary"), str):
            raw["boundary"] = parse_timestamp(raw["boundary"])
        if isinstance(raw.get("algorithms"), str):
            raw["algorithms"] = [a.strip() for a in raw["algorithms"].split(",") if a.strip()]
        owners = {None: cls, "als": als_mod.AlsConfig, "forest": forest_mod.ForestConfig}
        hints = {sub: typing.get_type_hints(owner) for sub, owner in owners.items()}
        given: dict = {sub: {} for sub in owners}
        for key, value in raw.items():
            sub, name = CONFIG_KEYS[key]
            given[sub][name] = typed_config_value(key, value, hints[sub][name])
        return cls(
            **given[None],
            als=als_mod.AlsConfig(**given["als"]),
            forest=forest_mod.ForestConfig(**given["forest"]),
        )


@dataclass(frozen=True, eq=False)
class ShortHeadCurve:
    """Cumulative sales share over items ordered by descending sales."""

    items: tuple[str, ...]
    cumulative_share: np.ndarray
    short_head_fraction: float
    n_short_head_items: int
    total_sales: int


@dataclass(frozen=True)
class EvaluationReport:
    """The canonical report payload (what report.json serializes)."""

    payload: dict

    def cell(self, metric: str, segment: str, algorithm: str):
        return self.payload["cells"][metric][segment][algorithm]

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        return cls(payload=json.loads(text))


@contextmanager
def _stage(name: str):
    try:
        yield
    except StylebenchError as exc:
        exc.args = (f"stage {name}: {exc.args[0] if exc.args else ''}",)
        raise


def short_head_curve(pop: PopularityTable) -> ShortHeadCurve:
    """Fraction of the catalog covering one third of all units sold.

    The denominator is every item in the popularity table, sold or not.
    """
    total = pop.total_sold
    if total <= 0:
        raise ZeroSales("short-head analysis needs at least one sale")
    quantities = np.array([pop.quantities[i] for i in pop.ranking], dtype=np.float64)
    cumulative = np.cumsum(quantities) / total
    threshold = total / 3.0
    n_head = int(np.searchsorted(np.cumsum(quantities), threshold, side="left")) + 1
    return ShortHeadCurve(
        items=pop.ranking,
        cumulative_share=cumulative,
        short_head_fraction=n_head / len(pop.ranking),
        n_short_head_items=n_head,
        total_sales=total,
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def purchase_masks(train: Dataset) -> dict[str, np.ndarray]:
    """Each buyer's training purchases as train item (= candidate) positions."""
    users, items, sold = train.pairs()
    users, items = users[sold], items[sold]
    starts = np.flatnonzero(np.diff(users, prepend=-1))
    # zip ends with the users: np.split of no sales still gives one chunk
    return dict(zip([train.user_ids[u] for u in users[starts]], np.split(items, starts[1:])))


def fit_factor_model(cfg: EvalConfig, train: Dataset):
    """The run's confidence matrix and ALS factor model."""
    als_cfg = dataclasses.replace(cfg.als, seed=derive_seed(cfg.seed, "als"))
    confidence = als_mod.build_confidence(train, als_cfg)
    return confidence, als_mod.fit_als(confidence, als_cfg)


def check_forest_inputs(cfg: EvalConfig, data: Dataset) -> None:
    """Reject, as a data error, data without a user or item feature table
    and a ``forest_features_per_split`` wider than the tables' columns, so
    nothing is fitted for a forest that cannot be."""
    missing = [
        side
        for side, table in (("user", data.user_features), ("item", data.item_features))
        if table is None
    ]
    if missing:
        raise MissingFeatures(
            f"the CB forest needs user and item feature tables; the data has no "
            f"{' or '.join(missing)} feature table"
        )
    schema = forest_mod.FeatureSchema.from_tables(data.user_features, data.item_features)
    try:
        cfg.forest.resolved_features_per_split(schema.n_features)
    except ValueError as exc:
        raise DataError(f"config key 'forest_features_per_split': {exc}") from None


def fit_cb_forest(cfg: EvalConfig, train: Dataset, confidence, factor_model):
    """The run's ALS-augmented content-based forest."""
    forest_cfg = dataclasses.replace(cfg.forest, seed=derive_seed(cfg.seed, "forest"))
    table = forest_mod.augment_labels(train, confidence, factor_model, forest_cfg)
    return forest_mod.fit_forest(table, forest_cfg, threads=cfg.threads)


def run_evaluation(cfg: EvalConfig, data: Dataset) -> EvaluationReport:
    """Execute the full pipeline and assemble the report grid."""
    if cfg.boundary is None:
        raise DataError("evaluation requires a split boundary timestamp")
    if "CB" in cfg.algorithms:
        check_forest_inputs(cfg, data)
    with _stage("temporal_split"):
        split = temporal_split(data, cfg.boundary)
        if not split.train.events:
            raise DataError("no training events before the boundary")
        if not split.test.events:
            raise DataError("no test events at or after the boundary")
    with _stage("segment_users"):
        seg = segment_users(split)
        stats = dataset_stats(split, seg)
    with _stage("popularity"):
        pop = popularity_table(split.train)

    candidates = split.train.item_ids
    test_users = split.test.user_ids
    k = cfg.k

    with _stage("relevance"):
        # each user's graded candidate positions and their grades
        graded = build_relevance(split.test, candidates, cfg.grading)

    mask_by_user = purchase_masks(split.train) if cfg.exclude_purchased else {}

    factor_model = forest_model = None
    if "CF" in cfg.algorithms or "CB" in cfg.algorithms:
        with _stage("fit_als"):
            confidence, factor_model = fit_factor_model(cfg, split.train)
    if "CB" in cfg.algorithms:
        with _stage("fit_forest"):
            forest_model = fit_cb_forest(cfg, split.train, confidence, factor_model)

    scorers = {
        "MP": lambda: score_mp_users(pop, test_users, candidates),
        "CF": lambda: score_cf_users(factor_model, test_users, candidates),
        "CB": lambda: score_cb_users(
            forest_model, test_users, candidates,
            data.user_features, data.item_features,
        ),
    }
    # per strategy: the covered users, their top-k item ids as one
    # (covered users x m) matrix, and their NDCG (NaN where undefined) in
    # the same order, all filled block by block
    covered: dict[str, list[str]] = {}
    top_items: dict[str, np.ndarray] = {}
    ndcg: dict[str, np.ndarray] = {}
    item_ids = np.asarray(candidates)
    m = min(k, len(candidates))
    for algo in cfg.algorithms:
        with _stage(f"recommend_{algo.lower()}"):
            covered[algo] = []
            tops, values = [np.empty((0, m), dtype=np.int64)], [np.empty(0)]
            for users, top, ranked_by in rank_users(scorers[algo](), k, mask_by_user):
                rel = [graded[u] for u in users]
                values.append(tie_aware_ndcg_arrays(
                    ranked_by, top, [p for p, _ in rel], [g for _, g in rel]
                ))
                # a shared row's one top-k row stands for each of its users
                tops.append(np.broadcast_to(top, (len(users), m)))
                covered[algo] += users
            top_items[algo] = item_ids[np.concatenate(tops)]
            ndcg[algo] = np.concatenate(values)

    # after the fits, so its temporaries reuse memory they have freed
    baselines = dict(zip(graded, random_baseline_ndcg(
        [grades for _, grades in graded.values()], len(candidates), k
    )))

    with _stage("short_head"):
        head = short_head_curve(pop)

    segment_members = {
        "sale_users": seg.users_in(Segment.SALE),
        "view_users": seg.users_in(Segment.VIEW),
        "new_users": seg.users_in(Segment.NEW),
        "average": test_users,
    }

    cells: dict[str, dict[str, dict[str, dict | None]]] = {
        metric: {row: {} for row in SEGMENT_ROWS} for metric in METRICS
    }
    for algo in cfg.algorithms:
        row_of = {u: r for r, u in enumerate(covered[algo])}
        for row in SEGMENT_ROWS:
            # CF cannot cover new users, so its new-user and pooled rows
            # stay unavailable
            if algo == "CF" and row in ("new_users", "average"):
                for metric in METRICS:
                    cells[metric][row][algo] = None
                continue
            members = [u for u in segment_members[row] if u in row_of]
            rows = [row_of[u] for u in members]
            cells["ndcg"][row][algo] = _ndcg_cell(
                ndcg[algo][rows], np.array([baselines[u] for u in members])
            )
            top = top_items[algo][rows]
            cells["ad"][row][algo] = _bootstrap_cell(cfg, "ad", row, algo, top, k)
            cells["rp"][row][algo] = _bootstrap_cell(cfg, "rp", row, algo, top, pop, k)

    # threads is an execution detail; keeping it out of the echo keeps
    # report.json byte-identical across --threads settings
    config_echo = {k: v for k, v in cfg.to_dict().items() if k != "threads"}
    payload = {
        "config": config_echo,
        "dataset": stats,
        "coverage": {
            algo: {
                "covered": len(covered[algo]),
                "uncovered": len(test_users) - len(covered[algo]),
            }
            for algo in cfg.algorithms
        },
        "short_head": {
            "short_head_fraction": head.short_head_fraction,
            "n_short_head_items": head.n_short_head_items,
            "n_items": len(head.items),
            "total_sales": head.total_sales,
        },
        "cells": cells,
    }
    return EvaluationReport(payload=payload)


def _ndcg_cell(values: np.ndarray, baselines: np.ndarray) -> dict | None:
    """One NDCG cell from its members' values and random baselines, NaN
    where undefined."""
    if not len(values):
        return None
    try:
        micro = micro_average_ndcg(values)
    except AllUndefined:
        return None
    baseline = float(np.mean(baselines[~np.isnan(values)]))
    return {
        "value": micro.value,
        "pct_over_random": percent_over_random(micro.value, baseline),
        "random_baseline": baseline,
        "n_users": micro.n_users,
        "n_excluded": micro.n_excluded,
    }


def _bootstrap_cell(cfg: EvalConfig, metric: str, row, algo, top, *args) -> dict | None:
    """One AD or RP cell from the members' top-k item matrix, bootstrapped
    from the cell's own seed; None with too few users (AD compares pairs
    of them, RP scores each one)."""
    ad = metric == "ad"
    if len(top) < (2 if ad else 1):
        return None
    value = (avg_distinct_sampled if ad else relative_popularity)(
        top, *args,
        seed=derive_seed(cfg.seed, metric, row, algo),
        resamples=cfg.bootstrap_resamples,
    )
    return {
        "point": value.point,
        "sd": value.dispersion,
        "ci_low": value.ci_low,
        "ci_high": value.ci_high,
        "n_pairs" if ad else "n_users": value.n_units,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# what render_report reads of a report.json: a dict is an object holding
# at least its keys, float a finite number, None any value
REPORT_SHAPE = {
    "config": dict.fromkeys(("algorithms", "k", "seed", "boundary")),
    "coverage": {},
    "short_head": dict.fromkeys(
        ("short_head_fraction", "n_short_head_items", "n_items", "total_sales"), float
    ),
    "cells": {metric: dict.fromkeys(SEGMENT_ROWS, {}) for metric in METRICS},
}
# what format_cell reads of a non-null cell, per metric
CELL_FIELDS = {"ndcg": ("value", "pct_over_random"), "ad": ("point", "sd"), "rp": ("point", "sd")}


def report_entries_shape(payload: dict) -> dict:
    """What render_report reads per algorithm of a payload that holds
    REPORT_SHAPE and lists its algorithms by name: a ``coverage`` entry
    for each listed algorithm and each coverage key, and the metric's
    CELL_FIELDS in each non-null cell of a listed algorithm."""
    algorithms, cells = payload["config"]["algorithms"], payload["cells"]
    entry = dict.fromkeys(("covered", "uncovered"))
    return {
        "coverage": dict.fromkeys([*algorithms, *payload["coverage"]], entry),
        "cells": {
            metric: {
                row: {
                    a: dict.fromkeys(fields, float)
                    for a in algorithms
                    if cells[metric][row].get(a) is not None
                }
                for row in SEGMENT_ROWS
            }
            for metric, fields in CELL_FIELDS.items()
        },
    }

_ROW_TITLES = {
    "sale_users": "Sale Users",
    "view_users": "View Users",
    "new_users": "New Users",
    "average": "Average",
}


def _fmt(value: float, decimals: int) -> str:
    """Round and drop a trailing all-zero fraction (1.00 -> 1)."""
    rounded = round(value, decimals)
    if rounded == int(rounded):
        return str(int(rounded))
    return f"{rounded:.{decimals}f}"


def format_cell(metric: str, cell: dict | None) -> str:
    """Render one grid cell the way the result tables print them."""
    if cell is None:
        return "-"
    if metric == "ndcg":
        return f"{cell['value']:.3f}({cell['pct_over_random']:.1f}%)"
    if metric == "ad":
        return f"{_fmt(cell['point'], 1)}({_fmt(cell['sd'], 1)})"
    return f"{_fmt(cell['point'], 2)}({_fmt(cell['sd'], 2)})"


def _metric_table_rows(report: EvaluationReport, metric: str) -> list[list[str]]:
    algorithms = report.payload["config"]["algorithms"]
    rows = [["segment"] + list(algorithms)]
    for row in SEGMENT_ROWS:
        cells = report.payload["cells"][metric][row]
        rows.append(
            [_ROW_TITLES[row]] + [format_cell(metric, cells.get(a)) for a in algorithms]
        )
    return rows


def render_report(
    report: EvaluationReport,
    out_dir: str | Path,
    formats: Iterable[str] = REPORT_FORMATS,
) -> list[Path]:
    """Write report files; returns the paths written.

    JSON carries full precision; CSV and Markdown render the
    ``value(SD)`` / ``value(pct-over-random)`` cell style with ``-`` for
    unavailable cells.
    """
    formats = set(formats)
    unknown = formats - set(REPORT_FORMATS)
    if unknown:
        raise ValueError(f"unknown report formats {sorted(unknown)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(report.to_json(), encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        tables = out_dir / "tables"
        tables.mkdir(exist_ok=True)
        for metric in METRICS:
            path = tables / f"{metric}.csv"
            lines = [",".join(r) for r in _metric_table_rows(report, metric)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    if "markdown" in formats:
        path = out_dir / "report.md"
        path.write_text(_render_markdown(report), encoding="utf-8")
        written.append(path)
    return written


_METRIC_TITLES = {
    "ndcg": "NDCG@k (pct over random)",
    "ad": "Average distinct @k (SD)",
    "rp": "Relative popularity @k (SD)",
}


def _render_markdown(report: EvaluationReport) -> str:
    out = ["# Evaluation report", ""]
    cfg = report.payload["config"]
    out.append(f"k = {cfg['k']}, seed = {cfg['seed']}, boundary = {cfg['boundary']}")
    out.append("")
    cov = report.payload["coverage"]
    out.append(
        "Coverage: "
        + ", ".join(f"{a}: {c['covered']} covered / {c['uncovered']} uncovered"
                    for a, c in sorted(cov.items()))
    )
    head = report.payload["short_head"]
    out.append(
        f"Short head: {head['n_short_head_items']} of {head['n_items']} items "
        f"({100 * head['short_head_fraction']:.1f}%) cover a third of "
        f"{head['total_sales']} units sold."
    )
    out.append("")
    for metric in METRICS:
        out.append(f"## {_METRIC_TITLES[metric]}")
        out.append("")
        rows = _metric_table_rows(report, metric)
        out.append("| " + " | ".join(rows[0]) + " |")
        out.append("|" + "---|" * len(rows[0]))
        for row in rows[1:]:
            out.append("| " + " | ".join(row) + " |")
        out.append("")
    return "\n".join(out)
