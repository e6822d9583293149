"""Interaction data model: ingestion, temporal splitting, segmentation,
popularity tabulation, and descriptive statistics.

File formats
------------
Interactions are CSV or JSONL with fields ``user_id, item_id, kind,
timestamp, quantity`` where ``kind`` is ``sale`` or ``view`` and
``timestamp`` is RFC 3339. Feature sidecars are CSV files named
``<stem>.users.csv`` / ``<stem>.items.csv`` next to the interactions file;
their header declares each column's type with a ``:num`` or ``:cat``
suffix (e.g. ``age:num,brand_pref:cat``). All files are UTF-8, with or
without a leading byte-order mark.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np
import numpy.ma  # noqa: F401  np.unique reads np.ma, which numpy 2 imports on first use (~10 ms)

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
    try:
        return datetime.fromisoformat(raw).astimezone(timezone.utc)
    except OverflowError:  # the offset moves it out of years 1-9999
        raise ValueError(f"timestamp {text!r} is outside years 1-9999 in UTC") from None


def format_timestamp(ts: datetime) -> str:
    """Render an aware datetime as RFC 3339 in UTC with a ``Z`` suffix,
    with six fraction digits when it has microseconds."""
    ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat(timespec="microseconds" if ts.microsecond else "seconds") + "Z"


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _micros(ts: datetime) -> int:
    """An aware datetime as whole microseconds since the Unix epoch."""
    return (ts - _EPOCH) // _MICROSECOND


# the shapes format_timestamp writes, "d" standing for a digit
_STAMP_SHAPES = ("dddd-dd-ddTdd:dd:ddZ", "dddd-dd-ddTdd:dd:dd.ddddddZ")


def _canonical_micros(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of each stamp in one of the
    ``_STAMP_SHAPES`` from year 1 on, and a mask of those stamps. Such a
    stamp is UTC, so numpy's ``datetime64`` parser, given it without its
    ``Z``, reads the instant ``parse_timestamp`` gives it. The stamps of one
    length are checked as one fixed-width array of code points; if numpy
    refuses any of them (a 29 February outside a leap year, say), that
    group is left whole to ``parse_timestamp``, as is every other stamp."""
    n = len(stamps)
    micros, parsed = np.zeros(n, np.int64), np.zeros(n, bool)
    lengths = np.fromiter(map(len, stamps), np.int64, n)
    for shape in _STAMP_SHAPES:
        rows = np.flatnonzero(lengths == len(shape))
        if not rows.size:
            continue
        text = stamps if rows.size == n else [stamps[r] for r in rows.tolist()]
        chars = np.array(text, dtype=f"U{len(shape)}").view(np.uint32).reshape(rows.size, -1)
        want = np.array([ord(c) for c in shape], np.uint32)
        digit = want == ord("d")
        # a code point below "0" wraps round to a large unsigned value;
        # numpy reads year 0000, which parse_timestamp refuses
        ok = (
            (chars[:, ~digit] == want[~digit]).all(1) & (chars[:, digit] - ord("0") <= 9).all(1)
            & (chars[:, :4] != ord("0")).any(1)
        )
        rows, zoneless = rows[ok], np.ascontiguousarray(chars[ok, :-1]).view(f"U{len(shape) - 1}")
        try:
            micros[rows] = zoneless.ravel().astype("datetime64[us]").view(np.int64)
        except ValueError:
            continue
        parsed[rows] = True
    return micros, parsed


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


# the fields of a record, in file column order
_RECORD_FIELDS = ("user_id", "item_id", "kind", "timestamp", "quantity")
# the event columns of a Dataset and their dtypes
_COLUMNS = {
    "user": np.int64, "item": np.int64, "sale": bool, "quantity": np.int64,
    "timestamp": np.int64,
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """An interaction log as event columns, plus entity universes and features.

    ``user_ids``/``item_ids`` are the sorted universes; feature tables may
    cover additional ids (a wider catalog pool) which are used only for
    lookups. The columns hold one entry per event, in ascending time order
    (same-instant events keep the order they were read or given in), and
    are read-only: ``user``/``item`` index the universes, ``sale`` flags
    sales, ``quantity`` holds units and ``timestamp`` whole microseconds
    since the Unix epoch (UTC).
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    user: np.ndarray
    item: np.ndarray
    sale: np.ndarray
    quantity: np.ndarray
    timestamp: np.ndarray
    user_features: FeatureTable | None = None
    item_features: FeatureTable | None = None

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            col = np.asarray(getattr(self, name), dtype=dtype)
            if col.shape != (len(self.user),):
                raise ValueError(f"column {name!r} has shape {col.shape}, not one entry per event")
            object.__setattr__(self, name, _frozen(col))
        for codes, universe in ((self.user, self.user_ids), (self.item, self.item_ids)):
            if codes.size and not (0 <= codes.min() and codes.max() < len(universe)):
                raise ValueError("an event's code lies outside its universe")
        if np.any(self.timestamp[1:] < self.timestamp[:-1]):
            raise ValueError("events are not in time order")

    @classmethod
    def from_events(
        cls,
        events: Iterable[InteractionEvent],
        user_features: FeatureTable | None = None,
        item_features: FeatureTable | None = None,
        users: Iterable[str] | None = None,
        items: Iterable[str] | None = None,
    ) -> "Dataset":
        """The events in time order (a stable sort). ``users``/``items``
        declare universes that may hold ids without events; by default each
        is the set of ids the events name."""
        events = list(events)
        user_id, item_id, kind, timestamp, quantity = (
            list(map(attrgetter(name), events)) for name in _RECORD_FIELDS
        )
        sides = []
        for ids, declared in ((user_id, users), (item_id, items)):
            universe = tuple(sorted(set(ids if declared is None else declared)))
            codes = id_rows(universe, ids)
            if np.any(codes == len(universe)):
                raise ValueError("an event names an id outside its declared universe")
            sides.append((universe, codes))
        return _time_ordered(
            *sides,
            sale=np.array([k is Kind.SALE for k in kind], bool),
            quantity=np.array(quantity, np.int64),
            timestamp=np.array(list(map(_micros, timestamp)), np.int64),
            user_features=user_features,
            item_features=item_features,
        )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.user_ids, self.item_ids) == (other.user_ids, other.item_ids)
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _COLUMNS)
            and (self.user_features, self.item_features)
            == (other.user_features, other.item_features)
        )

    def __hash__(self):
        return hash((self.user_ids, self.item_ids, self.n_events))

    @property
    def users(self) -> frozenset[str]:
        return frozenset(self.user_ids)

    @property
    def items(self) -> frozenset[str]:
        return frozenset(self.item_ids)

    @property
    def n_events(self) -> int:
        return len(self.user)

    @cached_property
    def events(self) -> tuple[InteractionEvent, ...]:
        """One ``InteractionEvent`` per event, in column order, built on
        first read; the pipeline reads the columns and never builds them."""
        kinds = (Kind.VIEW, Kind.SALE)
        return tuple(
            InteractionEvent(self.user_ids[u], self.item_ids[i], kinds[s],
                             _EPOCH + t * _MICROSECOND, q)
            for u, i, s, t, q in zip(self.user.tolist(), self.item.tolist(),
                                     self.sale.tolist(), self.timestamp.tolist(),
                                     self.quantity.tolist())
        )

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
        return self.n_events - self.n_sales


def id_rows(universe: Sequence[str], ids: Sequence[str]) -> np.ndarray:
    """The position in ``universe`` (distinct ids) of each of ``ids``, as
    int64, or ``len(universe)`` for an id not there: one past the last, so
    an array over the positions with one more entry reads that entry for
    it. Every id -> position lookup of the package goes through here."""
    index = {eid: r for r, eid in enumerate(universe)}
    absent = repeat(len(universe))
    return np.fromiter(map(index.get, ids, absent), np.int64, len(ids))


def _frozen(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False  # shared by every reader
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

_DIGITS = re.compile("[0-9]+")


def _event_from_record(record: Mapping[str, object], path, line_no) -> InteractionEvent:
    """One record's event under the record rules, which every loader
    applies: any rule it breaks raises a MalformedRecord at ``line_no``."""
    missing = [f for f in _RECORD_FIELDS if f not in record or record[f] in (None, "")]
    if missing:
        raise MalformedRecord(path, line_no, f"missing fields {missing}")
    for field in ("user_id", "item_id"):
        if not _utf8_text(str(record[field])):
            raise MalformedRecord(path, line_no, f"{field} {record[field]!r} holds a lone surrogate")
    kind = _record_kind(record["kind"], path, line_no)
    quantity = _record_quantity(record["quantity"], path, line_no)
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


def _utf8_text(text: str) -> bool:
    """Whether UTF-8 encodes ``text``: not when a JSON escape such as
    ``"\\ud800"`` has put a lone surrogate in it, which no file can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _record_kind(value: object, path, line_no) -> Kind:
    try:
        return Kind(str(value).strip().lower())
    except ValueError:
        raise UnknownKind(path, line_no, f"unknown kind {value!r}") from None


def _record_quantity(value: object, path, line_no) -> int:
    # an int (not a bool, not a float) or a string of ASCII digits; int()
    # alone would also take "1_0", " +3 " and non-ASCII digits
    quantity = value
    if isinstance(quantity, str) and _DIGITS.fullmatch(quantity):
        try:
            quantity = int(quantity)
        except ValueError:  # longer than int()'s digit limit
            pass
    if type(quantity) is not int:
        raise MalformedRecord(path, line_no, f"quantity {value!r} is not an integer (digits 0-9)")
    if quantity < 1:
        raise NonPositiveQuantity(path, line_no, f"quantity {quantity} is not positive")
    if quantity >= 2**31:  # keeps every per-item total within int64
        raise MalformedRecord(path, line_no, f"quantity {quantity} is not below 2**31")
    return quantity


def _sale_code(kind: str) -> int:
    """1 for a sale, 0 for a view, -1 for a kind the record rules refuse."""
    try:
        return int(_record_kind(kind, None, None) is Kind.SALE)
    except DataError:
        return -1


def _quantity_code(quantity: str) -> int:
    """The quantity, or 0 for one the record rules refuse."""
    try:
        return _record_quantity(quantity, None, None)
    except DataError:
        return 0


def _per_value(column: Sequence[str], rule, dtype) -> np.ndarray:
    """``rule`` applied once per distinct value of ``column``, as an array over it."""
    table = {value: rule(value) for value in set(column)}
    return np.fromiter(map(table.__getitem__, column), dtype, len(column))


def _stamp_micros(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each timestamp in microseconds since the epoch and whether it parsed:
    canonical ones in bulk, the rest one at a time by ``parse_timestamp``."""
    micros, parsed = _canonical_micros(stamps)
    for r in np.flatnonzero(~parsed).tolist():
        try:
            micros[r] = _micros(parse_timestamp(stamps[r]))
        except ValueError:
            continue
        parsed[r] = True
    return micros, parsed


def _distinct_rows(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct ``ids`` and each id's position among them."""
    distinct = tuple(sorted(set(ids)))
    return distinct, id_rows(distinct, ids)


def _joined_rows(parts: Sequence[tuple[tuple[str, ...], np.ndarray]]) -> tuple:
    """The sorted union of some ``_distinct_rows`` results and every id's
    position in it, in the parts' order."""
    universe = tuple(sorted(set().union(*(distinct for distinct, _ in parts))))
    rows = [id_rows(universe, distinct)[at] for distinct, at in parts]
    return universe, np.concatenate(rows)


def _time_ordered(
    users: tuple[tuple[str, ...], np.ndarray],
    items: tuple[tuple[str, ...], np.ndarray],
    sale: np.ndarray,
    quantity: np.ndarray,
    timestamp: np.ndarray,
    user_features: FeatureTable | None = None,
    item_features: FeatureTable | None = None,
) -> Dataset:
    """Events given in any order, as each side's universe and every event's
    position in it (a ``_distinct_rows`` result, say) plus sale, quantity
    and timestamp columns, as a Dataset in time order: a stable sort, so
    same-instant events keep the order they were given in."""
    order = np.argsort(timestamp, kind="stable")
    (user_ids, user), (item_ids, item) = users, items
    return Dataset(
        user_ids=user_ids,
        item_ids=item_ids,
        user=user[order],
        item=item[order],
        sale=sale[order],
        quantity=quantity[order],
        timestamp=timestamp[order],
        user_features=user_features,
        item_features=item_features,
    )


_CHUNK_ROWS = 4096  # records held, checked and coded at a time


def _record_chunks(reader, path: Path, size: int | None = None) -> Iterator[list[list[str]]]:
    """The reader's rows in lists of up to ``size`` (all in one list when
    None), blank lines dropped. A line the reader cannot read (a CSV cell
    over ``csv.field_size_limit()``, a JSONL line that holds no object,
    bytes that do not decode) raises MalformedRecord at its line after the
    rows before it are yielded: errors still come in file order."""
    while True:
        rows: list[list[str]] = []
        try:
            rows.extend(islice(reader, size))  # keeps the rows read before an error
        except (csv.Error, MalformedRecord, UnicodeDecodeError) as exc:
            yield list(filter(None, rows))
            if isinstance(exc, csv.Error):
                raise MalformedRecord(path, reader.line_num, str(exc)) from None
            raise  # _open_utf8 names the line of bytes that do not decode
        yield list(filter(None, rows))
        if size is None or len(rows) < size:
            return


def _header(reader, path: Path) -> list[str] | None:
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise MalformedRecord(path, reader.line_num, str(exc)) from None


def _jsonl_records(fh, path: Path) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of a JSONL file as its line number and object."""
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()  # before parsing, so error positions count from it
        if not line:
            continue
        try:
            record = json.loads(line, object_pairs_hook=_object_without_repeats)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(path, line_no, f"bad JSON: {exc}") from None
        except ValueError as exc:  # a repeated key, or an int over int()'s digit limit
            raise MalformedRecord(path, line_no, str(exc)) from None
        except RecursionError:  # arrays or objects nested past the parser's depth
            raise MalformedRecord(path, line_no, "JSON nested too deeply to read") from None
        if not isinstance(record, dict):
            raise MalformedRecord(path, line_no, "record is not an object")
        yield line_no, record


def _record_at(path: Path, record: int) -> tuple[int, list[str] | dict]:
    """Data record ``record`` (0 the first; blank lines and a CSV header not
    counted), read again only to name and replay an error: the line it ends
    on, and its fields, a CSV row's cells or a JSONL line's JSON-typed object."""
    with _open_utf8(path) as fh:
        if _is_jsonl(path):
            records = _jsonl_records(fh, path)
        else:
            reader = csv.reader(fh)
            next(reader)
            records = ((reader.line_num, row) for row in reader if row)
        return next(islice(records, record, None))


def _refuse_event(header: list[str], path: Path, record: int) -> NoReturn:
    """Raise the error the record rules give data record ``record``, which the
    bulk checks refused, on its fields as read (JSON-typed, from JSONL)."""
    line_no, fields = _record_at(path, record)
    if isinstance(fields, list):  # a CSV row
        if len(fields) > len(header):
            raise MalformedRecord(path, line_no, f"expected {len(header)} cells, got {len(fields)}")
        fields = dict(zip(header, fields))
    _event_from_record(fields, path, line_no)
    raise AssertionError(f"{path}:{line_no}: the bulk checks refused a valid record")


def _event_chunk(rows, header, path: Path, first: int) -> tuple:
    """One chunk of records, which start at data record ``first``, as
    user and item ``_distinct_rows`` and sale, quantity and timestamp
    columns. Each check runs on whole columns; the first record any of
    them refuses, in file order, raises its error."""
    width = len(header)
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    wide = np.flatnonzero(lengths > width)
    n = int(wide[0]) if wide.size else len(rows)
    if not n:  # also every row under a blank header line
        _refuse_event(header, path, first)
    full = rows[:n]
    if (lengths[:n] < width).any():  # absent cells read as empty, as in a csv.DictReader
        full = [row + [""] * (width - len(row)) for row in full]
    cells = dict(zip(header, zip(*full)))
    users, items = _distinct_rows(cells["user_id"]), _distinct_rows(cells["item_id"])
    sale = _per_value(cells["kind"], _sale_code, np.int8)
    quantity = _per_value(cells["quantity"], _quantity_code, np.int64)
    timestamp, parsed = _stamp_micros(cells["timestamp"])
    refused = (sale < 0) | (quantity == 0) | ((sale == 0) & (quantity != 1)) | ~parsed
    for distinct, at in (users, items):
        if distinct[0] == "":  # an empty id sorts first
            refused |= at == 0
        if not _utf8_text("".join(distinct)):
            refused |= ~np.array([_utf8_text(eid) for eid in distinct])[at]
    if refused.any():
        _refuse_event(header, path, first + int(np.argmax(refused)))
    if wide.size:
        _refuse_event(header, path, first + n)
    return users, items, sale == 1, quantity, timestamp


def _load_interactions(path: Path) -> Dataset:
    """An interactions file as a Dataset without features, in chunks of
    ``_CHUNK_ROWS`` records checked by ``_event_chunk``. A JSONL record is a
    row of ``_RECORD_FIELDS`` cells: ``str(value)``, ``""`` for null or absent."""
    with _open_utf8(path) as fh:
        if _is_jsonl(path):
            header = list(_RECORD_FIELDS)
            reader = (["" if record.get(f) is None else str(record[f]) for f in header]
                      for _, record in _jsonl_records(fh, path))
        else:
            reader = csv.reader(fh)
            header = _header(reader, path) or []  # an empty file has zero events
            missing = [f for f in _RECORD_FIELDS if header and f not in header]
            if missing:
                raise MalformedRecord(path, 1, f"header missing columns {missing}")
            for name in header:
                if header.count(name) > 1:
                    raise MalformedRecord(path, 1, f"column {name!r} appears twice")
        parts, first = [], 0
        for rows in _record_chunks(reader, path, _CHUNK_ROWS):
            if rows:
                parts.append(_event_chunk(rows, header, path, first))
                first += len(rows)
    if not parts:
        return Dataset.from_events(())
    users, items, sale, quantity, timestamp = zip(*parts)
    return _time_ordered(_joined_rows(users), _joined_rows(items),
                         *map(np.concatenate, (sale, quantity, timestamp)))


def load_feature_table(path: str | Path, id_field: str) -> FeatureTable:
    """Load a typed-header feature sidecar CSV.

    The first column must be the entity id; every other header cell is
    ``name:num`` or ``name:cat``.
    """
    path = Path(path)
    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        if header is None:
            raise MalformedRecord(path, 1, "empty feature file")
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
        for rows in _record_chunks(reader, path):  # one chunk: the whole file
            ids, columns = _feature_columns(rows, specs, path)
    return FeatureTable(ids=ids, columns=columns)


def _feature_columns(rows, specs, path: Path) -> tuple[tuple[str, ...], dict]:
    """A sidecar's rows as ids and feature columns. Row lengths, repeated
    ids and numeric cells are checked a column at a time; the first row any
    check refuses, in file order, raises its error."""
    width = len(specs) + 1
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    bad = np.flatnonzero(lengths != width)
    first_bad = int(bad[0]) if bad.size else len(rows)
    cells = list(zip(*rows[:first_bad])) or [()] * width
    ids = cells[0]
    if len(set(ids)) < len(ids):
        first_bad = _first_repeat(ids)
    columns: dict[str, FeatureColumn] = {}
    for (name, kind), col in zip(specs, cells[1:]):
        if kind == "categorical":
            values = np.array(col, dtype=object)
        else:
            try:
                values = np.fromiter(map(float, col), np.float64, len(col))
            except ValueError:
                values = np.array([_float_or_nan(cell) for cell in col])
            finite = np.isfinite(values)
            if not finite.all():
                first_bad = min(first_bad, int(np.argmin(finite)))
        columns[name] = FeatureColumn(kind=kind, values=values)
    if first_bad < len(rows):
        _refuse_feature_row(rows, first_bad, specs, path)
    return ids, columns


def _first_repeat(ids: Sequence[str]) -> int:
    seen: set[str] = set()
    for r, eid in enumerate(ids):
        if eid in seen:
            return r
        seen.add(eid)
    raise ValueError("no id repeats")


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _refuse_feature_row(rows, r: int, specs, path: Path) -> NoReturn:
    """Raise the error of sidecar row ``r``, whose earlier rows all pass:
    its cell count, then its id, then its numeric cells left to right."""
    row, (line_no, _) = rows[r], _record_at(path, r)
    if len(row) != len(specs) + 1:
        raise MalformedRecord(path, line_no, f"expected {len(specs) + 1} cells, got {len(row)}")
    earlier = [other[0] for other in rows[:r]]
    if row[0] in earlier:
        first, _ = _record_at(path, earlier.index(row[0]))
        raise MalformedRecord(path, line_no, f"id {row[0]!r} repeats line {first}")
    for (name, kind), cell in zip(specs, row[1:]):
        if kind == "numeric":
            _numeric_cell(cell, name, path, line_no)
    raise AssertionError(f"{path}:{line_no}: the bulk checks refused a valid row")


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
    """``path`` opened for reading as UTF-8 text, past a leading byte-order
    mark if it has one (as spreadsheet programs write). A read that meets
    bytes that do not decode raises MalformedRecord at the first physical
    line holding them: a newline byte never occurs inside a multi-byte UTF-8
    sequence, so decoding the raw lines one by one finds it exactly. A path
    that cannot be opened (a directory, say) raises DataError naming it."""
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
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


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path`` (a config, manifest, report
    or model file), read past a leading byte-order mark. A file that cannot
    be read, does not hold one JSON object or repeats a key raises
    DataError naming ``what`` and the file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        raw = json.loads(text, object_pairs_hook=_object_without_repeats)
    except OSError as exc:  # a directory, say
        raise DataError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # a repeated key, or an int over int()'s digit limit
        raise DataError(f"{what} {path}: {exc}") from None
    except RecursionError:  # arrays or objects nested past the parser's depth
        raise DataError(f"{what} {path} is nested too deeply to read") from None
    if not isinstance(raw, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return raw


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
    user_path, item_path = sidecar_paths(path)
    return replace(
        _load_interactions(path),
        user_features=load_feature_table(user_path, "user_id") if user_path.exists() else None,
        item_features=load_feature_table(item_path, "item_id") if item_path.exists() else None,
    )


def write_feature_table(table: FeatureTable, path: str | Path, id_field: str) -> None:
    path = Path(path)
    tags = {"numeric": "num", "categorical": "cat"}
    names = list(table.columns)
    cells = [
        map(repr if col.kind == "numeric" else str, col.values.tolist())
        for col in table.columns.values()
    ]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_field] + [f"{n}:{tags[table.columns[n].kind]}" for n in names])
        writer.writerows(zip(table.ids, *cells))


def _format_micros(micros: np.ndarray) -> list[str]:
    """``format_timestamp`` of each instant, given in microseconds since the epoch."""
    when = micros.astype("datetime64[us]")
    text = np.datetime_as_string(when, unit="s", timezone="UTC").astype(object)
    fraction = micros % 1_000_000 != 0
    text[fraction] = np.datetime_as_string(when[fraction], unit="us", timezone="UTC")
    return text.tolist()


def write_events(data: Dataset, path: str | Path) -> None:
    """Write a dataset back out, as JSONL or CSV by the file suffix;
    inverse of :func:`load_events`."""
    path = Path(path)
    rows = zip(
        map(data.user_ids.__getitem__, data.user.tolist()),
        map(data.item_ids.__getitem__, data.item.tolist()),
        map(("view", "sale").__getitem__, data.sale.tolist()),
        _format_micros(data.timestamp),
        data.quantity.tolist(),
    )
    if _is_jsonl(path):
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(dict(zip(_RECORD_FIELDS, row)), sort_keys=True) + "\n")
    else:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_RECORD_FIELDS)
            writer.writerows(rows)
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
    cut = int(np.searchsorted(data.timestamp, _micros(boundary)))
    train, test = (_events_in(data, rows) for rows in (slice(None, cut), slice(cut, None)))
    return TemporalSplit(train=train, test=test, boundary=boundary)


def _events_in(data: Dataset, rows: slice) -> Dataset:
    """Some of ``data``'s events, each universe narrowed to the ids they name."""
    users, user = np.unique(data.user[rows], return_inverse=True)
    items, item = np.unique(data.item[rows], return_inverse=True)
    return Dataset(
        user_ids=tuple(map(data.user_ids.__getitem__, users.tolist())),
        item_ids=tuple(map(data.item_ids.__getitem__, items.tolist())),
        user=user,
        item=item,
        sale=data.sale[rows],
        quantity=data.quantity[rows],
        timestamp=data.timestamp[rows],
        user_features=data.user_features,
        item_features=data.item_features,
    )


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
    cells = len(data.user_ids) * len(data.item_ids)
    sales, views = data.n_sales, data.n_views
    unobserved = cells - sales - views
    return {
        "users": len(data.user_ids),
        "products": len(data.item_ids),
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
