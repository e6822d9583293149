"""End-to-end evaluation pipeline.

Runs split -> segmentation -> training -> recommendation -> metrics and
assembles the per-(segment x algorithm x metric) report grid, plus the
short-head sales analysis. Every random choice flows from the master
seed, so reruns (at any thread count) produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import als as als_mod
from . import forest as forest_mod
from .data import (
    Dataset,
    PopularityTable,
    Segment,
    _object_without_repeats,
    dataset_stats,
    format_timestamp,
    id_rows,
    parse_timestamp,
    popularity_table,
    segment_users,
    take_rows,
    temporal_split,
)
from .errors import (
    AllUndefined,
    DataError,
    InvalidReport,
    MissingFeatures,
    StylebenchError,
    ZeroSales,
)
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
# CF cannot cover new users, so its cells in these rows are null
CF_NULL_ROWS = ("new_users", "average")
# each report format and the files it writes, relative to the output directory
REPORT_FILES = {
    "json": ("report.json",),
    "csv": tuple(f"tables/{metric}.csv" for metric in METRICS),
    "markdown": ("report.md",),
}
REPORT_FORMATS = tuple(REPORT_FILES)

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


def is_number(value) -> bool:
    """Whether ``value`` is an int or float (not a bool) that formats as a
    finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def typed_config_value(key: str, value, hint):
    """``value`` checked against the type hint of the field ``key`` sets.

    Bools must be bools and ints must be ints that are not bools; a float
    field takes a finite float or an int that is one (returned as float),
    an ``X | None`` field takes null, and a tuple field takes a list.
    Raises ValueError naming the key.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        if value is None and type(None) in args:
            return None
        hint, args = args[0], typing.get_args(args[0])
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)) and all(isinstance(v, args[0]) for v in value):
            return tuple(value)
    elif hint is float:
        if is_number(value):
            return float(value)
    elif hint is bool or not isinstance(value, bool):
        if isinstance(value, hint):
            return value
    name = "finite float" if hint is float else getattr(hint, "__name__", str(hint))
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
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError("config key 'algorithms' must list one algorithm or more, each once")
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
        """The report in report.json's ``text``, held to the report
        contract: a key given twice raises ValueError, and a payload that
        breaks :func:`check_payload` InvalidReport."""
        payload = json.loads(text, object_pairs_hook=_object_without_repeats)
        check_payload(payload)
        return cls(payload=payload)


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


def purchase_masks(train: Dataset, user_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each user's training purchases as train item (= candidate)
    positions, ragged ``(indptr, positions)`` over ``user_ids``; a user
    who bought nothing in training has an empty row."""
    users, items, sold = train.pairs()
    users, items = users[sold], items[sold]
    # a row per training user, and an empty one past them for absent users
    indptr = np.searchsorted(users, np.arange(len(train.user_ids) + 2))
    return take_rows(indptr, id_rows(train.user_ids, user_ids), items)


def check_forest_inputs(cfg: EvalConfig, data: Dataset, train: Dataset) -> None:
    """Reject, as a data error, data the CB forest cannot be fitted and
    scored on, so nothing is fitted for a forest that cannot be: no user or
    item feature table, a user of the data or an item of its ``train``
    split without a feature row, tables with no feature column between
    them, or a ``forest_features_per_split`` wider than the tables'
    columns."""
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
    for side, table, ids in (
        ("user", data.user_features, data.user_ids),
        ("item", data.item_features, train.item_ids),
    ):
        absent = np.flatnonzero(id_rows(table.ids, ids) == len(table.ids))
        if len(absent):
            raise MissingFeatures(
                f"the CB forest needs a feature row for every user and training "
                f"item; {side} {ids[absent[0]]!r} has none"
            )
    schema = forest_mod.FeatureSchema.from_tables(data.user_features, data.item_features)
    if not schema.n_features:
        raise MissingFeatures(
            "the CB forest needs a feature column; the user and item feature "
            "tables hold only ids"
        )
    try:
        cfg.forest.resolved_features_per_split(schema.n_features)
    except ValueError as exc:
        raise DataError(f"config key 'forest_features_per_split': {exc}") from None


def fit_models(cfg: EvalConfig, data: Dataset, train: Dataset, algorithms: Sequence[str]):
    """The ALS factor model (for CF or CB) and the ALS-augmented forest
    (for CB) that ``algorithms`` score with, fitted on ``train``, the
    training split of ``data``; None for a model no strategy asked for.
    An empty ``train``, and data :func:`check_forest_inputs` refuses, are
    data errors raised before anything is fitted."""
    with _stage("temporal_split"):
        if not train.n_events:
            raise DataError("no training events before the boundary")
    if "CB" in algorithms:
        check_forest_inputs(cfg, data, train)
    factor_model = forest = None
    if "CF" in algorithms or "CB" in algorithms:
        with _stage("fit_als"):
            als_cfg = dataclasses.replace(cfg.als, seed=derive_seed(cfg.seed, "als"))
            confidence = als_mod.build_confidence(train, als_cfg)
            factor_model = als_mod.fit_als(confidence, als_cfg)
    if "CB" in algorithms:
        with _stage("fit_forest"):
            forest_cfg = dataclasses.replace(cfg.forest, seed=derive_seed(cfg.seed, "forest"))
            table = forest_mod.augment_labels(train, confidence, factor_model, forest_cfg)
            forest = forest_mod.fit_forest(table, forest_cfg, threads=cfg.threads)
    return factor_model, forest


def run_evaluation(cfg: EvalConfig, data: Dataset) -> EvaluationReport:
    """Execute the full pipeline and assemble the report grid."""
    if cfg.boundary is None:
        raise DataError("evaluation requires a split boundary timestamp")
    with _stage("temporal_split"):
        split = temporal_split(data, cfg.boundary)
        if not split.test.n_events:
            raise DataError("no test events at or after the boundary")
    factor_model, forest_model = fit_models(cfg, data, split.train, cfg.algorithms)
    with _stage("segment_users"):
        segments = segment_users(split)
        stats = dataset_stats(split, segments)
    with _stage("popularity"):
        pop = popularity_table(split.train)

    candidates = split.train.item_ids
    test_users = split.test.user_ids
    k = cfg.k

    with _stage("relevance"):
        # each test row's graded candidate positions and their grades, ragged
        indptr, positions, grades = build_relevance(split.test, candidates, cfg.grading)

    masks = purchase_masks(split.train, test_users) if cfg.exclude_purchased else None

    scorers = {
        "MP": lambda: score_mp_users(pop, test_users, candidates),
        "CF": lambda: score_cf_users(factor_model, test_users, candidates),
        "CB": lambda: score_cb_users(
            forest_model, test_users, candidates,
            data.user_features, data.item_features,
        ),
    }
    # per strategy, over the test rows: which users it covers, their top-k
    # candidate positions and their NDCG (NaN where undefined or not
    # covered), each written at the block's rows
    covered: dict[str, np.ndarray] = {}
    top_pos: dict[str, np.ndarray] = {}
    ndcg: dict[str, np.ndarray] = {}
    item_ids = np.asarray(candidates)
    m = min(k, len(candidates))
    for algo in cfg.algorithms:
        with _stage(f"recommend_{algo.lower()}"):
            covered[algo] = np.zeros(len(test_users), dtype=bool)
            top_pos[algo] = np.zeros((len(test_users), m), dtype=np.int64)
            ndcg[algo] = np.full(len(test_users), np.nan)
            for rows, top, ranked_by in rank_users(scorers[algo](), k, masks):
                covered[algo][rows] = True
                # a shared row's one top-k row stands for each of its users
                top_pos[algo][rows] = top
                ndcg[algo][rows] = tie_aware_ndcg_arrays(
                    ranked_by, top, *take_rows(indptr, rows, positions, grades)
                )

    # after the fits, so its temporaries reuse memory they have freed
    baselines = random_baseline_ndcg(indptr, grades, len(candidates), k)

    with _stage("short_head"):
        head = short_head_curve(pop)

    # each report row's members as a mask over the test rows
    in_row = {s.value: segments == code for code, s in enumerate(Segment)}
    in_row["average"] = np.ones(len(test_users), dtype=bool)

    cells: dict[str, dict[str, dict[str, dict | None]]] = {
        metric: {row: {} for row in SEGMENT_ROWS} for metric in METRICS
    }
    for algo in cfg.algorithms:
        for row in SEGMENT_ROWS:
            if algo == "CF" and row in CF_NULL_ROWS:
                for metric in METRICS:
                    cells[metric][row][algo] = None
                continue
            # a mask over the test rows: the members in user-id order
            members = in_row[row] & covered[algo]
            cells["ndcg"][row][algo] = _ndcg_cell(ndcg[algo][members], baselines[members])
            top = item_ids[top_pos[algo][members]]
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
                "covered": int(np.count_nonzero(covered[algo])),
                "uncovered": int(np.count_nonzero(~covered[algo])),
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
    check_payload(payload)
    check_report(cells, covered, ndcg, in_row)
    return EvaluationReport(payload=payload)


def cell_fields(k: int) -> dict[str, dict]:
    """A non-null cell's fields per metric, in report.json's order: a [lo,
    hi] range, None for any finite number, or int for a count."""
    ad, rp = (0.0, 2.0 * k), (0.0, math.inf)
    return {
        "ndcg": {"value": (0.0, 1.0), "pct_over_random": None, "random_baseline": (0.0, 1.0),
                 "n_users": int, "n_excluded": int},
        "ad": {"point": ad, "sd": rp, "ci_low": ad, "ci_high": ad, "n_pairs": int},
        "rp": {"point": rp, "sd": rp, "ci_low": rp, "ci_high": rp, "n_users": int},
    }


def _is_count(value, least: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def check_payload(payload, name: str = "report") -> None:
    """Raise InvalidReport at the first part of a report payload that breaks
    the report contract (README, "Report contract"), reading nothing but
    the payload. A shape or type fault reads ``{name} has no valid
    'dotted.path'``; ``name`` is "report FILE" for a report read from a
    file. The cost is O(cells)."""

    def get(path: str, valid=lambda value: True):
        node, keys = payload, path.split(".")
        for i, key in enumerate(keys):
            if not isinstance(node, dict) or key not in node:
                path = ".".join(keys[: i + 1])
                break
            node = node[key]
        else:
            if valid(node):
                return node
        raise InvalidReport(f"{name} has no valid {path!r}")

    algorithms = get("config.algorithms", lambda a: isinstance(a, list) and a and all(
        x in ALGORITHMS for x in a) and len(set(a)) == len(a))
    k = get("config.k", lambda v: _is_count(v, 1))
    get("config.seed"), get("config.boundary")  # printed as they are
    users = get("dataset.test.users", _is_count)
    members = {s.value: get(f"dataset.test.segments.{s.value}.users", _is_count) for s in Segment}
    get("dataset.test.segments", lambda _: sum(members.values()) == users)
    members["average"] = users
    for algo in algorithms:
        covered, uncovered = (get(f"coverage.{algo}.{key}", _is_count)
                              for key in ("covered", "uncovered"))
        # MP and CB cover every test user, CF all but the new users
        new = members[Segment.NEW.value] if algo == "CF" else 0
        if (covered, uncovered) != (users - new, new):
            raise InvalidReport(f"{name} coverage {algo}: {covered} covered + {uncovered} "
                                f"uncovered, but {algo} covers {users - new} of {users} test users")
    get("coverage", lambda c: c.keys() <= set(algorithms))
    for key in ("short_head_fraction", "n_short_head_items", "n_items", "total_sales"):
        get(f"short_head.{key}", is_number)

    for metric, fields in cell_fields(k).items():
        for row, algo in itertools.product(SEGMENT_ROWS, algorithms):
            path, where = f"cells.{metric}.{row}.{algo}", f"{name} cell {metric}/{row}/{algo}"
            cell, m = get(path, lambda c: c is None or isinstance(c, dict)), members[row]
            if algo == "CF" and row in CF_NULL_ROWS:
                if cell is not None:
                    raise InvalidReport(f"{where} is not null, but CF cannot cover new users")
            elif cell is None:  # whether an NDCG member can be graded is not in the payload
                if metric != "ndcg" and m >= (2 if metric == "ad" else 1):
                    raise InvalidReport(f"{where} is null, but its users can be graded")
            else:
                for field_name, kind in fields.items():
                    # a non-finite float in a ranged field is out of range, not malformed
                    value = get(f"{path}.{field_name}", _is_count if kind is int else (
                        lambda v: is_number(v) or kind is not None and isinstance(v, float)))
                    lo, hi = kind if isinstance(kind, tuple) else (-math.inf, math.inf)
                    if not (math.isfinite(value) and lo <= value <= hi):
                        raise InvalidReport(
                            f"{where}: {field_name} = {value!r} is outside [{lo}, {hi}]"
                        )
                # a cell's counts add up to its m covered members, or AD's pairs of them
                counts = [f for f, kind in fields.items() if kind is int]
                total = sum(cell[f] for f in counts)
                want = min(m, m * (m - 1) // 2) if metric == "ad" else m
                if total != want:
                    raise InvalidReport(f"{where}: {' + '.join(counts)} = {total}, "
                                        f"not the {want} its row's {m} covered users give")


def check_report(
    cells: dict, covered: dict[str, np.ndarray], ndcg: dict[str, np.ndarray],
    in_row: dict[str, np.ndarray],
) -> None:
    """Raise InvalidReport at the first fault only run_evaluation's masks
    show: a test user MP or CB leaves uncovered, CF uncovered users that are
    not the new users, or a null NDCG cell with a member that can be graded.
    ``covered``, ``ndcg`` and ``in_row`` are over the test rows: the users
    each strategy covers, its NDCG per user (NaN where undefined or not
    covered), and each report row's members."""
    for algo in ("MP", "CB"):
        if algo in covered and not covered[algo].all():
            n = np.count_nonzero(~covered[algo])
            raise InvalidReport(f"{algo} leaves {n} test users uncovered")
    if "CF" in covered and not np.array_equal(~covered["CF"], in_row[Segment.NEW.value]):
        raise InvalidReport("CF's uncovered test users are not the new users")
    for row in SEGMENT_ROWS:
        for algo, cell in cells["ndcg"][row].items():
            if cell is None and not (algo == "CF" and row in CF_NULL_ROWS):
                if not np.isnan(ndcg[algo][in_row[row] & covered[algo]]).all():
                    raise InvalidReport(
                        f"report cell ndcg/{row}/{algo} is null, but its users can be graded"
                    )


def _ndcg_cell(values: np.ndarray, baselines: np.ndarray) -> dict | None:
    """One NDCG cell from its members' values and random baselines, NaN
    where undefined."""
    try:  # no member, or none with a graded item
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
    texts = []  # in REPORT_FILES order
    if "json" in formats:
        texts.append(report.to_json())
    if "csv" in formats:
        for metric in METRICS:
            lines = [",".join(r) for r in _metric_table_rows(report, metric)]
            texts.append("\n".join(lines) + "\n")
    if "markdown" in formats:
        texts.append(_render_markdown(report))
    written = [
        Path(out_dir) / name for f in REPORT_FORMATS if f in formats for name in REPORT_FILES[f]
    ]
    for path, text in zip(written, texts, strict=True):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
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
