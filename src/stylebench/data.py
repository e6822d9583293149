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
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

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
    """A test user's segment; its code is the member's position here."""

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
        return _frozen(id_rows(self.user_ids, [e.user_id for e in self.events]))

    @cached_property
    def item(self) -> np.ndarray:
        return _frozen(id_rows(self.item_ids, [e.item_id for e in self.events]))

    @cached_property
    def sale(self) -> np.ndarray:
        return self._column((e.kind is Kind.SALE for e in self.events), bool)

    @cached_property
    def quantity(self) -> np.ndarray:
        return self._column((e.quantity for e in self.events), np.int64)

    def _column(self, values: Iterable, dtype) -> np.ndarray:
        return _frozen(np.fromiter(values, dtype, len(self.events)))

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


def id_rows(universe: Sequence[str], ids: Sequence[str]) -> np.ndarray:
    """The position in ``universe`` (distinct ids) of each of ``ids``, as
    int64, or ``len(universe)`` for an id not there: one past the last, so
    an array over the positions with one more entry reads that entry for
    it. Every id -> position lookup of the package goes through here."""
    index = {eid: r for r, eid in enumerate(universe)}
    absent = len(universe)
    return np.fromiter((index.get(eid, absent) for eid in ids), np.int64, len(ids))


def _frozen(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False  # cached and shared by every reader
    return col


@dataclass(frozen=True)
class TemporalSplit:
    """Events partitioned at a boundary instant: train strictly before."""

    train: Dataset
    test: Dataset
    boundary: datetime


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


def load_feature_table(path: str | Path, id_field: str) -> FeatureTable:
    """Load a typed-header feature sidecar CSV.

    The first column must be the entity id; every other header cell is
    ``name:num`` or ``name:cat``.
    """
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


@contextmanager
def _open_utf8(path: Path) -> Iterator[IO[str]]:
    """``path`` opened for reading as UTF-8 text. A read that meets bytes
    that do not decode raises MalformedRecord at the first physical line
    holding them: a newline byte never occurs inside a multi-byte UTF-8
    sequence, so decoding the raw lines one by one finds it exactly. A path
    that cannot be opened (a directory, say) raises DataError naming it."""
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
    except UnicodeDecodeError:
        with path.open("rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise MalformedRecord(
                        path, line_no, f"not UTF-8: {exc.reason} at byte {exc.start + 1}"
                    ) from None
        raise


def _is_jsonl(path: Path) -> bool:
    return path.suffix.lower() in (".jsonl", ".ndjson")


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that appears twice (which
    ``json.loads`` would resolve silently to its last value)."""
    record = dict(pairs)
    if len(record) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} appears twice")
    return record


def sidecar_paths(path: str | Path) -> tuple[Path, Path]:
    """Paths of the user/item feature sidecars for an interactions file."""
    path = Path(path)
    stem = path.with_suffix("")
    return Path(f"{stem}.users.csv"), Path(f"{stem}.items.csv")


def load_events(path: str | Path) -> Dataset:
    """Load an interactions file (and feature sidecars, when present).

    A ``.jsonl`` or ``.ndjson`` file holds one JSON object per line; any
    other is CSV. Events come back sorted ascending by timestamp; the sort
    is stable so same-instant events keep file order.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    events: list[InteractionEvent] = []
    if _is_jsonl(path):
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
    else:
        with _open_utf8(path) as fh:
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


def write_events(data: Dataset, path: str | Path) -> None:
    """Write a dataset back out, as JSONL or CSV by the file suffix;
    inverse of :func:`load_events`."""
    path = Path(path)
    if _is_jsonl(path):
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
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_REQUIRED_FIELDS)
            for e in data.events:
                writer.writerow(
                    [e.user_id, e.item_id, e.kind.value, format_timestamp(e.timestamp), e.quantity]
                )
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


def take_rows(indptr: np.ndarray, rows: np.ndarray, *flats) -> tuple[np.ndarray, ...]:
    """``rows`` (which may repeat) of ragged arrays, row r running from
    ``indptr[r]`` to ``indptr[r + 1]`` of each of ``flats``, as their own
    indptr and each flat array's entries, row after row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out = np.concatenate(([0], np.cumsum(lengths)))
    at = np.arange(out[-1]) + np.repeat(starts - out[:-1], lengths)
    return (out, *(flat[at] for flat in flats))


def segment_users(split: TemporalSplit) -> np.ndarray:
    """Each test row's segment code (int8), from training history alone.

    Sale users have at least one training purchase; view users have
    training views but no sales; new users have no training activity.
    """
    train = split.train
    # a code per training row, and a new-user one past them for absent users
    code = np.zeros(len(train.user_ids) + 1, dtype=np.int8)
    code[train.user] = 1
    code[train.user[train.sale]] = 2
    return code[id_rows(train.user_ids, split.test.user_ids)]


def popularity_table(data: Dataset) -> PopularityTable:
    """Total units sold per item, every item present (0 when never sold).

    The ranking sorts by descending quantity, then ascending item id.
    """
    sold = np.zeros(len(data.item_ids), dtype=np.int64)
    np.add.at(sold, data.item[data.sale], data.quantity[data.sale])
    quantities = dict(zip(data.item_ids, sold.tolist()))
    ranking = tuple(sorted(quantities, key=lambda i: (-quantities[i], i)))
    return PopularityTable(quantities=quantities, ranking=ranking)


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def _side_stats(data: Dataset) -> dict:
    """One side's row of the descriptive tables. Unobserved = user-item
    cells minus sale and view event counts, the summary tables' arithmetic."""
    cells = len(data.users) * len(data.items)
    sales, views = data.n_sales, data.n_views
    unobserved = cells - sales - views
    return {
        "users": len(data.users),
        "products": len(data.items),
        "sales": sales,
        "sales_pct": _pct(sales, cells),
        "views": views,
        "views_pct": _pct(views, cells),
        "unobserved": unobserved,
        "unobserved_pct": _pct(unobserved, cells),
    }


def dataset_stats(split: TemporalSplit, segments: np.ndarray) -> dict:
    """The train/test descriptive tables, with each segment's share of the
    test users (``segments`` holds their codes): report.json's ``dataset``
    section."""
    counts = np.bincount(segments, minlength=len(Segment)).tolist()
    test = _side_stats(split.test)
    test["segments"] = {
        s.value: {"users": n, "pct": _pct(n, test["users"])} for s, n in zip(Segment, counts)
    }
    return {"train": _side_stats(split.train), "test": test}
