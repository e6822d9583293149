"""Interaction data model: ingestion, temporal splitting, segmentation,
popularity tabulation, and descriptive statistics.

File formats
------------
Interactions are CSV or JSONL with fields ``user_id, item_id, kind,
timestamp, quantity`` where ``kind`` is ``sale`` or ``view`` and
``timestamp`` is RFC 3339. Feature sidecars are CSV files named
``<stem>.users.csv`` / ``<stem>.items.csv`` next to the interactions file;
their header declares each column's type with a ``:num`` or ``:cat``
suffix (e.g. ``age:num,brand_pref:cat``). All files are UTF-8.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DataError,
    MalformedRecord,
    NonPositiveQuantity,
    UnknownKind,
)

# RFC 3339 date-time; its offset is required, so a naive time never passes
_RFC3339 = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}[Tt ]"  # full-date and separator
    r"[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?"  # partial-time
    r"([Zz]|[+-][0-9]{2}:[0-9]{2})"  # time-offset
)


class Kind(enum.Enum):
    SALE = "sale"
    VIEW = "view"


class Segment(enum.Enum):
    NEW = "new_users"
    VIEW = "view_users"
    SALE = "sale_users"


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime.

    The string must be an RFC 3339 ``date-time``, which
    ``datetime.fromisoformat`` alone does not check: it also reads ISO 8601
    week dates, basic (compact) forms and offsets without a colon.
    """
    raw = text.strip()
    if not _RFC3339.fullmatch(raw):
        raise ValueError(f"timestamp {text!r} is not an RFC 3339 date-time")
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    return datetime.fromisoformat(raw).astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """Render an aware datetime as RFC 3339 with a ``Z`` suffix."""
    ts = ts.astimezone(timezone.utc)
    if ts.microsecond:
        return ts.isoformat().replace("+00:00", "Z")
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class InteractionEvent:
    """One timestamped user-item sale or view.

    Views always carry quantity 1; repeated views are separate events.
    """

    user_id: str
    item_id: str
    kind: Kind
    timestamp: datetime
    quantity: int = 1

    def __post_init__(self):
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")
        if self.kind is Kind.VIEW and self.quantity != 1:
            raise ValueError("views carry quantity 1")
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")


@dataclass(frozen=True)
class FeatureColumn:
    """A named feature vector, numeric or categorical.

    Categorical values are strings drawn from a finite vocabulary;
    numeric values are float64.
    """

    kind: str  # "numeric" | "categorical"
    values: np.ndarray
    vocabulary: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == "categorical":
            object.__setattr__(
                self, "values", np.asarray(self.values, dtype=object)
            )
            vocab = self.vocabulary or tuple(sorted(set(self.values.tolist())))
            object.__setattr__(self, "vocabulary", vocab)
            extra = set(self.values.tolist()) - set(vocab)
            if extra:
                raise ValueError(f"values outside vocabulary: {sorted(extra)[:5]}")
        else:
            object.__setattr__(
                self, "values", np.asarray(self.values, dtype=np.float64)
            )

    def __eq__(self, other):
        if not isinstance(other, FeatureColumn):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.vocabulary == other.vocabulary
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class FeatureTable:
    """Per-entity feature rows keyed by id.

    All columns have length ``len(ids)``; ids are unique.
    """

    ids: tuple[str, ...]
    columns: dict[str, FeatureColumn]

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate ids in feature table")
        for name, col in self.columns.items():
            if len(col.values) != len(self.ids):
                raise ValueError(f"column {name!r} length != id count")
        object.__setattr__(
            self, "_index", {eid: i for i, eid in enumerate(self.ids)}
        )

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._index

    def index_of(self, entity_id: str) -> int:
        return self._index[entity_id]

    def row(self, entity_id: str) -> dict[str, object]:
        i = self._index[entity_id]
        return {name: col.values[i] for name, col in self.columns.items()}

    def __eq__(self, other):
        if not isinstance(other, FeatureTable):
            return NotImplemented
        return self.ids == other.ids and self.columns == other.columns


@dataclass(frozen=True)
class Dataset:
    """An ordered interaction log plus entity universes and features.

    ``users`` and ``items`` are the entities appearing in ``events``;
    feature tables may cover additional ids (a wider catalog pool) which
    are used only for lookups.

    Read-only per-event columns, decoded once on first use and not fields:
    ``user``/``item`` index the sorted ``user_ids``/``item_ids``; ``sale``, ``quantity``.
    """

    events: tuple[InteractionEvent, ...]
    users: frozenset[str]
    items: frozenset[str]
    user_features: FeatureTable | None = None
    item_features: FeatureTable | None = None

    @classmethod
    def from_events(
        cls,
        events: Iterable[InteractionEvent],
        user_features: FeatureTable | None = None,
        item_features: FeatureTable | None = None,
    ) -> "Dataset":
        ordered = tuple(sorted(events, key=lambda e: e.timestamp))
        return cls(
            events=ordered,
            users=frozenset(e.user_id for e in ordered),
            items=frozenset(e.item_id for e in ordered),
            user_features=user_features,
            item_features=item_features,
        )

    @cached_property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.users))

    @cached_property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.items))

    @cached_property
    def user(self) -> np.ndarray:
        index = {u: i for i, u in enumerate(self.user_ids)}
        return self._column((index[e.user_id] for e in self.events), np.int64)

    @cached_property
    def item(self) -> np.ndarray:
        index = {m: i for i, m in enumerate(self.item_ids)}
        return self._column((index[e.item_id] for e in self.events), np.int64)

    @cached_property
    def sale(self) -> np.ndarray:
        return self._column((e.kind is Kind.SALE for e in self.events), bool)

    @cached_property
    def quantity(self) -> np.ndarray:
        return self._column((e.quantity for e in self.events), np.int64)

    def _column(self, values: Iterable, dtype) -> np.ndarray:
        col = np.fromiter(values, dtype, len(self.events))
        col.flags.writeable = False  # cached and shared by every reader
        return col

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct (user, item) index pairs, ascending, and whether any is a sale."""
        n = len(self.item_ids)
        keys, inverse = np.unique(self.user * n + self.item, return_inverse=True)
        sold = np.bincount(inverse[self.sale], minlength=len(keys)) > 0
        return keys // n, keys % n, sold

    @property
    def n_sales(self) -> int:
        return int(np.count_nonzero(self.sale))

    @property
    def n_views(self) -> int:
        return len(self.events) - self.n_sales


@dataclass(frozen=True)
class TemporalSplit:
    """Events partitioned at a boundary instant: train strictly before."""

    train: Dataset
    test: Dataset
    boundary: datetime


@dataclass(frozen=True)
class SegmentAssignment:
    """Test users labeled by their training-period history only."""

    mapping: dict[str, Segment]

    def counts(self) -> dict[Segment, int]:
        out = {seg: 0 for seg in Segment}
        for seg in self.mapping.values():
            out[seg] += 1
        return out

    def users_in(self, segment: Segment) -> list[str]:
        return sorted(u for u, s in self.mapping.items() if s == segment)


@dataclass(frozen=True)
class PopularityTable:
    """Per-item total units sold, with a deterministic descending ranking.

    Ties are broken by ascending item id so reruns are reproducible.
    """

    quantities: dict[str, int]
    ranking: tuple[str, ...]

    @property
    def total_sold(self) -> int:
        return sum(self.quantities.values())

    def top_quantities(self, k: int) -> list[int]:
        return [self.quantities[i] for i in self.ranking[:k]]


@dataclass(frozen=True)
class DatasetStats:
    """The descriptive-statistics columns reported for train and test."""

    train_users: int
    train_items: int
    train_sales: int
    train_views: int
    train_unobserved: int
    test_users: int
    test_items: int
    test_sales: int
    test_views: int
    test_unobserved: int
    segment_counts: dict[str, int]

    @staticmethod
    def _pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    def as_dict(self) -> dict:
        train_cells = self.train_users * self.train_items
        test_cells = self.test_users * self.test_items
        n_test_users = self.test_users
        return {
            "train": {
                "users": self.train_users,
                "products": self.train_items,
                "sales": self.train_sales,
                "sales_pct": self._pct(self.train_sales, train_cells),
                "views": self.train_views,
                "views_pct": self._pct(self.train_views, train_cells),
                "unobserved": self.train_unobserved,
                "unobserved_pct": self._pct(self.train_unobserved, train_cells),
            },
            "test": {
                "users": self.test_users,
                "products": self.test_items,
                "sales": self.test_sales,
                "sales_pct": self._pct(self.test_sales, test_cells),
                "views": self.test_views,
                "views_pct": self._pct(self.test_views, test_cells),
                "unobserved": self.test_unobserved,
                "unobserved_pct": self._pct(self.test_unobserved, test_cells),
                "segments": {
                    name: {
                        "users": count,
                        "pct": self._pct(count, n_test_users),
                    }
                    for name, count in self.segment_counts.items()
                },
            },
        }


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("user_id", "item_id", "kind", "timestamp", "quantity")
_DIGITS = re.compile("[0-9]+")


def _event_from_record(record: Mapping[str, object], path, line_no) -> InteractionEvent:
    missing = [f for f in _REQUIRED_FIELDS if f not in record or record[f] in (None, "")]
    if missing:
        raise MalformedRecord(path, line_no, f"missing fields {missing}")
    kind_raw = str(record["kind"]).strip().lower()
    try:
        kind = Kind(kind_raw)
    except ValueError:
        raise UnknownKind(path, line_no, f"unknown kind {record['kind']!r}") from None
    # an int (not a bool, not a float) or a string of ASCII digits; int()
    # alone would also take "1_0", " +3 " and non-ASCII digits
    quantity = record["quantity"]
    if isinstance(quantity, str) and _DIGITS.fullmatch(quantity):
        try:
            quantity = int(quantity)
        except ValueError:  # longer than int()'s digit limit
            pass
    if type(quantity) is not int:
        raise MalformedRecord(
            path, line_no, f"quantity {record['quantity']!r} is not an integer (digits 0-9)"
        )
    if quantity < 1:
        raise NonPositiveQuantity(path, line_no, f"quantity {quantity} is not positive")
    if quantity >= 2**31:  # keeps every per-item total within int64
        raise MalformedRecord(path, line_no, f"quantity {quantity} is not below 2**31")
    if kind is Kind.VIEW and quantity != 1:
        raise MalformedRecord(path, line_no, "view rows must carry quantity 1")
    try:
        ts = parse_timestamp(str(record["timestamp"]))
    except ValueError as exc:
        raise MalformedRecord(path, line_no, str(exc)) from None
    return InteractionEvent(
        user_id=str(record["user_id"]),
        item_id=str(record["item_id"]),
        kind=kind,
        timestamp=ts,
        quantity=quantity,
    )


def _sniff_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    return "csv"


def load_feature_table(path: str | Path, id_field: str) -> FeatureTable:
    """Load a typed-header feature sidecar CSV.

    The first column must be the entity id; every other header cell is
    ``name:num`` or ``name:cat``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
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
        first_line: dict[str, int] = {}
        raw_cols: list[list[str]] = [[] for _ in specs]
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
    columns: dict[str, FeatureColumn] = {}
    for (name, kind), raw in zip(specs, raw_cols):
        dtype = np.float64 if kind == "numeric" else object
        columns[name] = FeatureColumn(kind=kind, values=np.array(raw, dtype=dtype))
    return FeatureTable(ids=tuple(first_line), columns=columns)


def _numeric_cell(cell: str, name: str, path: Path, line_no: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise MalformedRecord(path, line_no, f"column {name!r}: {exc}") from None
    if not math.isfinite(value):
        raise MalformedRecord(path, line_no, f"column {name!r}: non-finite value {cell!r}")
    return value


def sidecar_paths(path: str | Path) -> tuple[Path, Path]:
    """Paths of the user/item feature sidecars for an interactions file."""
    path = Path(path)
    stem = path.with_suffix("")
    return Path(f"{stem}.users.csv"), Path(f"{stem}.items.csv")


def load_events(path: str | Path, format: str | None = None) -> Dataset:
    """Load an interactions file (and feature sidecars, when present).

    Events come back sorted ascending by timestamp; the sort is stable so
    same-instant events keep file order.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    fmt = (format or _sniff_format(path)).lower()
    events: list[InteractionEvent] = []
    if fmt == "csv":
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []  # an empty file has zero events
            missing = [f for f in _REQUIRED_FIELDS if header and f not in header]
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
    elif fmt == "jsonl":
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(path, line_no, f"bad JSON: {exc}") from None
                if not isinstance(record, dict):
                    raise MalformedRecord(path, line_no, "record is not an object")
                events.append(_event_from_record(record, path, line_no))
    else:
        raise ValueError(f"unknown format {format!r}")

    user_path, item_path = sidecar_paths(path)
    user_features = load_feature_table(user_path, "user_id") if user_path.exists() else None
    item_features = load_feature_table(item_path, "item_id") if item_path.exists() else None
    return Dataset.from_events(events, user_features, item_features)


def write_feature_table(table: FeatureTable, path: str | Path, id_field: str) -> None:
    path = Path(path)
    tags = {"numeric": "num", "categorical": "cat"}
    names = list(table.columns)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_field] + [f"{n}:{tags[table.columns[n].kind]}" for n in names])
        for i, eid in enumerate(table.ids):
            row = [eid]
            for n in names:
                col = table.columns[n]
                value = col.values[i]
                row.append(repr(float(value)) if col.kind == "numeric" else str(value))
            writer.writerow(row)


def write_events(data: Dataset, path: str | Path, format: str | None = None) -> None:
    """Write a dataset back out; inverse of :func:`load_events`."""
    path = Path(path)
    fmt = (format or _sniff_format(path)).lower()
    if fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_REQUIRED_FIELDS)
            for e in data.events:
                writer.writerow(
                    [e.user_id, e.item_id, e.kind.value, format_timestamp(e.timestamp), e.quantity]
                )
    elif fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for e in data.events:
                fh.write(
                    json.dumps(
                        {
                            "user_id": e.user_id,
                            "item_id": e.item_id,
                            "kind": e.kind.value,
                            "timestamp": format_timestamp(e.timestamp),
                            "quantity": e.quantity,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    else:
        raise ValueError(f"unknown format {format!r}")
    user_path, item_path = sidecar_paths(path)
    if data.user_features is not None:
        write_feature_table(data.user_features, user_path, "user_id")
    if data.item_features is not None:
        write_feature_table(data.item_features, item_path, "item_id")


# ---------------------------------------------------------------------------
# Splitting, segmentation, popularity, stats
# ---------------------------------------------------------------------------


def temporal_split(data: Dataset, boundary: datetime) -> TemporalSplit:
    """Partition events at ``boundary``: train strictly before, test at or after.

    Each side's user/item universe is recomputed from its own events.
    Empty sides are legal.
    """
    if boundary.tzinfo is None:
        raise ValueError("boundary must be timezone-aware")
    train_events = [e for e in data.events if e.timestamp < boundary]
    test_events = [e for e in data.events if e.timestamp >= boundary]
    train = Dataset.from_events(train_events, data.user_features, data.item_features)
    test = Dataset.from_events(test_events, data.user_features, data.item_features)
    return TemporalSplit(train=train, test=test, boundary=boundary)


def segment_users(split: TemporalSplit) -> SegmentAssignment:
    """Label each test-period user from training history alone.

    Sale users have at least one training purchase; view users have
    training views but no sales; new users have no training activity.
    """
    train = split.train
    sold = {train.user_ids[u] for u in set(train.user[train.sale].tolist())}
    active = {train.user_ids[u] for u in set(train.user.tolist())}
    return SegmentAssignment(mapping={
        user: Segment.SALE if user in sold else Segment.VIEW if user in active else Segment.NEW
        for user in split.test.user_ids
    })


def popularity_table(data: Dataset) -> PopularityTable:
    """Total units sold per item, every item present (0 when never sold).

    The ranking sorts by descending quantity, then ascending item id.
    """
    sold = np.zeros(len(data.item_ids), dtype=np.int64)
    np.add.at(sold, data.item[data.sale], data.quantity[data.sale])
    quantities = dict(zip(data.item_ids, sold.tolist()))
    ranking = tuple(sorted(quantities, key=lambda i: (-quantities[i], i)))
    return PopularityTable(quantities=quantities, ranking=ranking)


def dataset_stats(split: TemporalSplit, seg: SegmentAssignment) -> DatasetStats:
    """Counts behind the train/test descriptive tables.

    Unobserved = user-item cells minus sale and view event counts, the
    same arithmetic the summary tables use.
    """
    train, test = split.train, split.test
    counts = seg.counts()
    return DatasetStats(
        train_users=len(train.users),
        train_items=len(train.items),
        train_sales=train.n_sales,
        train_views=train.n_views,
        train_unobserved=len(train.users) * len(train.items) - train.n_sales - train.n_views,
        test_users=len(test.users),
        test_items=len(test.items),
        test_sales=test.n_sales,
        test_views=test.n_views,
        test_unobserved=len(test.users) * len(test.items) - test.n_sales - test.n_views,
        segment_counts={seg_.value: counts[seg_] for seg_ in Segment},
    )
