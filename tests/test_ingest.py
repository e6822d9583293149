"""Loading, splitting and writing the interaction log as event columns.

The loaders check whole columns at once, a JSONL line read as a row of
cells; ``tests/oracles.py`` keeps the per-record loops they replaced.
Generated files, valid and malformed, must load to the same Dataset or
FeatureTable, or raise the same error with the same file and line.
"""

import csv
import io
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import loop_load_events, loop_load_feature_table, loop_load_jsonl_events
from stylebench import data as data_mod
from stylebench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, dispatch
from stylebench.data import (
    Dataset,
    InteractionEvent,
    Kind,
    _canonical_micros,
    _micros,
    _stamp_micros,
    format_timestamp,
    load_events,
    load_feature_table,
    parse_timestamp,
    temporal_split,
    write_events,
)
from stylebench.errors import DataError, MalformedRecord

UTC = timezone.utc
HEADER = "user_id,item_id,kind,timestamp,quantity"
OUT_OF_RANGE = ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"]

# ids that need quoting: commas, quotes and newlines inside a cell
USER_IDS = ["u1", "u2", "u,3", 'u"4', "u\n5", "U6"]
ITEM_IDS = ["i1", "i2", "i 3", "i,4", "i\r\n5"]
# instants around leap days and the ends of months, years and the epoch
INSTANTS = [
    datetime(2020, 2, 29, 23, 59, 59, tzinfo=UTC),
    datetime(2024, 2, 29, 12, 0, 0, 250_000, tzinfo=UTC),
    datetime(2000, 2, 29, 0, 0, 0, tzinfo=UTC),
    datetime(2021, 12, 31, 23, 59, 59, 999_999, tzinfo=UTC),
    datetime(1969, 12, 31, 23, 59, 59, tzinfo=UTC),
    datetime(1970, 1, 1, tzinfo=UTC),
    datetime(2022, 8, 28, tzinfo=UTC),
]


def stamp_forms(ts: datetime) -> list[str]:
    """RFC 3339 spellings of one instant: canonical, lower-case, with a
    space, an offset or a shorter fraction."""
    z = format_timestamp(ts)
    shifted = ts.astimezone(timezone(timedelta(hours=-5, minutes=-30)))
    return [
        z,
        z.replace("T", "t").replace("Z", "z"),
        z.replace("T", " "),
        z[:-1] + "+00:00",
        shifted.isoformat(),
        ts.strftime("%Y-%m-%dT%H:%M:%S") + f".{ts.microsecond // 1000:03d}Z",
        " " + z + " ",
    ]


# cells the record rules refuse, per field (a row holds at most one)
MUTANTS = {
    "user_id": [""],
    "item_id": [""],
    "kind": ["", "return", "sales", "Sale!"],
    "quantity": ["", "0", "-1", "1_0", " 3", "+2", "٣", "2147483648", "1.0", "9" * 5000],
    "timestamp": [
        "", "later", "2022-13-01T00:00:00Z", "2022-02-29T00:00:00Z", "1900-02-29T00:00:00Z",
        "2022-04-31T00:00:00Z", "2022-01-01T24:00:00Z", "2022-01-01T00:60:00Z",
        "2022-01-01T00:00:60Z", "0000-01-01T00:00:00Z", "2022-01-01T00:00:00",
        "2022-W01-1T00:00:00Z", "2022-01-01T00:00:00.1234567Z", "2022-01-00T00:00:00Z",
        "２022-01-01T00:00:00Z", "2022-01-01T00:00:00\x00Z", *OUT_OF_RANGE,
    ],
}


@st.composite
def event_rows(draw):
    """Valid records as dicts of cells, in no time order."""
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["sale", "view", " Sale ", "VIEW", "view "]))
        sale = kind.strip().lower() == "sale"
        rows.append({
            "user_id": draw(st.sampled_from(USER_IDS)),
            "item_id": draw(st.sampled_from(ITEM_IDS)),
            "kind": kind,
            "timestamp": draw(st.sampled_from(stamp_forms(draw(st.sampled_from(INSTANTS))))),
            "quantity": draw(st.sampled_from(["1", "2", "007", "10"]) if sale
                             else st.sampled_from(["1", "01"])),
        })
    return rows


def render_csv(draw, header, rows):
    """CSV text of ``rows`` (lists of cells) with blank lines, either line
    terminator and either quoting style."""
    out = io.StringIO()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    writer = csv.writer(out, lineterminator=end, quoting=quoting)
    writer.writerow(header)
    for row in rows:
        if draw(st.integers(0, 4)) == 0:
            out.write(end * draw(st.integers(1, 2)))
        writer.writerow(row)
    return out.getvalue()


@st.composite
def interaction_files(draw, mutate):
    """CSV text of generated records: required columns in any order, maybe
    an extra column, and with ``mutate`` one malformed cell or row."""
    names = draw(st.permutations(["user_id", "item_id", "kind", "timestamp", "quantity"]))
    header = list(names) + draw(st.sampled_from([[], ["note"]]))
    records = draw(event_rows())
    rows = [[rec.get(name, "a, \"note\"\nhere") for name in header] for rec in records]
    if mutate:
        assume(rows)
        r = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["cell", "cell", "cell", "long", "short", "view"]))
        if how == "cell":
            field = draw(st.sampled_from(sorted(MUTANTS)))
            rows[r][header.index(field)] = draw(st.sampled_from(MUTANTS[field]))
        elif how == "long":
            rows[r] = rows[r] + ["x"] * draw(st.integers(1, 2))
        elif how == "short":
            rows[r] = rows[r][: draw(st.integers(1, len(header) - 1))]
        else:
            rows[r][header.index("kind")] = "view"
            rows[r][header.index("quantity")] = "2"
    return render_csv(draw, header, rows)


def outcome(load, *args):
    try:
        return "ok", load(*args)
    except DataError as exc:
        return "error", (type(exc), str(exc))


def assert_same_outcome(path, load, oracle, *args):
    got, want = outcome(load, path, *args), outcome(oracle, path, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    return got


class TestBulkLoaderMatchesRecordLoop:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(text=st.one_of(interaction_files(False), interaction_files(True)),
           chunk=st.integers(1, 5))
    def test_interactions(self, text, chunk):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_mod, "_CHUNK_ROWS", chunk)  # many chunks per file
            path = Path(tmp) / "events.csv"
            path.write_text(text, encoding="utf-8", newline="")
            kind, got = assert_same_outcome(path, load_events, loop_load_events)
            if kind == "ok":
                want = loop_load_events(path)
                assert got == want
                assert got.events == want.events
                for col in ("user", "item", "quantity", "timestamp"):
                    assert getattr(got, col).dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sidecars(self, data):
        draw = data.draw
        specs = draw(st.lists(st.sampled_from(["age:num", "style:cat", "price:num", "fit:cat"]),
                              max_size=3, unique=True))
        ids = draw(st.lists(st.sampled_from(USER_IDS), unique=True, max_size=6))
        rows = []
        for eid in ids:
            row = [eid]
            for spec in specs:
                row.append(draw(st.sampled_from(
                    ["1.5", " 2 ", "1e3", "-0", "1_0", "7"] if spec.endswith("num")
                    else ["a", "b,c", "d\ne", ""]
                )))
            rows.append(row)
        if rows and draw(st.booleans()):
            r = draw(st.integers(0, len(rows) - 1))
            how = draw(st.sampled_from(["repeat", "width", "number"]))
            if how == "repeat":
                rows[r][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
            elif how == "width":
                rows[r] = rows[r] + ["x"] if draw(st.booleans()) else rows[r][:-1] or ["", ""]
            elif any(s.endswith("num") for s in specs):
                j = 1 + next(j for j, s in enumerate(specs) if s.endswith("num"))
                rows[r][j] = draw(st.sampled_from(["", "x", "nan", "inf", "-Infinity", "1,5"]))
        text = render_csv(draw, ["user_id", *specs], rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.users.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert_same_outcome(path, load_feature_table, loop_load_feature_table, "user_id")

    @pytest.mark.parametrize("text", ["", "\n", "\nu1,i1,view,2022-01-01T00:00:00Z,1\n",
                                      HEADER + "\n", HEADER + "\n\n\n"])
    def test_empty_and_blank_headed_files(self, tmp_path, text):
        path = tmp_path / "events.csv"
        path.write_text(text, encoding="utf-8")
        kind, got = assert_same_outcome(path, load_events, loop_load_events)
        if kind == "ok":
            assert got.n_events == 0 and got.events == ()


# JSON-typed values a JSONL field may hold in place of a valid one: null,
# bools, ints and floats (as ids, kinds, quantities or instants), nested
# values and an escaped lone surrogate
JSON_MUTANTS = [
    None, "", True, False, 0, -1, 7, 2**31, 10**30, 1.0, 2.0, 1.5, float("nan"), [2],
    {"a": [None]}, "x\ud800", "return", "later", "1_0", 1_700_000_000,
]
# lines that hold no record: bad JSON, an int over int()'s digit limit,
# a repeated key (at the top or nested), and JSON values that are not objects
JSONL_BAD_LINES = [
    "{", '{"user_id": }', "nope", '{"a": 1} x', '{"quantity": %s}' % ("9" * 5000),
    '{"user_id": "u1", "user_id": "u2"}', '{"note": {"a": 1, "a": 2}}',
    "[1, 2]", "3", '"x"', "null", "true",
]


def padded(draw, line):
    """The line with the same blanks, maybe none, on each side."""
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return pad + line + pad


@st.composite
def jsonl_record(draw, mutate):
    """A JSONL record's text, its keys in any order, maybe with an extra key;
    with ``mutate``, maybe a field absent or holding a JSON-typed mutant."""
    kind = draw(st.sampled_from(["sale", "view", " Sale ", "VIEW"]))
    sale = kind.strip().lower() == "sale"
    record = {
        "user_id": draw(st.sampled_from([*USER_IDS, 7, 0, True])),
        "item_id": draw(st.sampled_from([*ITEM_IDS, 3, 2.5])),
        "kind": kind,
        "timestamp": draw(st.sampled_from(stamp_forms(draw(st.sampled_from(INSTANTS))))),
        "quantity": draw(st.sampled_from([1, 2, 7, "007", "3"] if sale else [1, "1", "01"])),
    }
    if draw(st.booleans()):
        record["note"] = draw(st.sampled_from(JSON_MUTANTS))
    if mutate and draw(st.booleans()):
        field = draw(st.sampled_from(sorted(record)))
        if draw(st.integers(0, 3)) == 0:
            del record[field]
        else:
            record[field] = draw(st.sampled_from(JSON_MUTANTS))
    keys = draw(st.permutations(sorted(record)))
    return padded(draw, json.dumps({key: record[key] for key in keys}))


def render_jsonl(draw, lines):
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + end for line in lines)


@st.composite
def jsonl_files(draw, mutate):
    """JSONL text of generated records and blank lines; with ``mutate``, any
    line may hold a malformed record or no record at all."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        what = draw(st.sampled_from(["record"] * 6 + ["blank"] + ["bad"] * mutate))
        if what == "record":
            lines.append(draw(jsonl_record(mutate)))
        elif what == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            lines.append(padded(draw, draw(st.sampled_from(JSONL_BAD_LINES))))
    return render_jsonl(draw, lines)


@st.composite
def late_error_jsonl_files(draw):
    """Six or more valid records (past a chunk of at most five), then a
    record the rules refuse, a line that holds no record and more records."""
    lines = [draw(jsonl_record(False)) for _ in range(draw(st.integers(6, 12)))]
    record = json.loads(draw(jsonl_record(False)))
    field, value = draw(st.sampled_from([
        ("user_id", None), ("item_id", "x\ud800"), ("kind", "return"), ("quantity", -1),
        ("quantity", 2.0), ("timestamp", "later"),
    ]))
    record[field] = value
    bad = padded(draw, draw(st.sampled_from(JSONL_BAD_LINES)))
    lines += [json.dumps(record), bad, draw(jsonl_record(False))]
    return render_jsonl(draw, lines)


class TestBulkJsonlMatchesLineLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.one_of(jsonl_files(False), jsonl_files(True), late_error_jsonl_files()),
           chunk=st.integers(1, 5))
    def test_interactions(self, text, chunk):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_mod, "_CHUNK_ROWS", chunk)  # many chunks per file
            path = Path(tmp) / "events.jsonl"
            path.write_text(text, encoding="utf-8", newline="")
            kind, got = assert_same_outcome(path, load_events, loop_load_jsonl_events)
            if kind == "ok":
                want = loop_load_jsonl_events(path)
                assert got == want
                assert got.events == want.events
                for col in ("user", "item", "quantity", "timestamp"):
                    assert getattr(got, col).dtype == np.int64


class TestCanonicalStamps:
    @settings(max_examples=500, deadline=None)
    @given(ts=st.datetimes(min_value=datetime(1, 1, 1),
                           max_value=datetime(9999, 12, 31, 23, 59, 59), timezones=st.just(UTC)))
    def test_written_stamps_parse_in_bulk(self, ts):
        text = format_timestamp(ts)
        micros, ok = _canonical_micros([text])
        assert ok.tolist() == [True]
        assert micros[0] == _micros(ts) == _micros(parse_timestamp(text))

    @settings(max_examples=500, deadline=None)
    @given(fields=st.tuples(st.integers(0, 9999), st.integers(0, 19), st.integers(0, 39),
                            st.integers(0, 29), st.integers(0, 69), st.integers(0, 69)),
           fraction=st.none() | st.integers(0, 999_999))
    def test_bulk_parse_agrees_with_parse_timestamp(self, fields, fraction):
        text = "%04d-%02d-%02dT%02d:%02d:%02d" % fields
        text += ("" if fraction is None else f".{fraction:06d}") + "Z"
        micros, ok = _canonical_micros([text, text.replace("Z", "z")])
        assert not ok[1]  # left to parse_timestamp
        try:
            want = _micros(parse_timestamp(text))
        except ValueError:
            assert not ok[0], text
        else:
            assert ok[0] and micros[0] == want, text

    @pytest.mark.parametrize("text", [
        "2024-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "2100-02-29T00:00:00Z",
        "2023-02-29T00:00:00Z", "2022-04-30T00:00:00Z", "2022-04-31T00:00:00Z",
        "2022-12-31T23:59:59.999999Z", "2022-01-01T00:00:60Z", "2022-01-01T00:60:00Z",
        "2022-01-01T24:00:00Z", "2022-00-01T00:00:00Z", "2022-13-01T00:00:00Z",
        "2022-01-00T00:00:00Z", "2022-01-32T00:00:00Z", "0000-12-31T00:00:00Z",
        "0001-01-01T00:00:00Z", "9999-12-31T23:59:59.999999Z", "1969-12-31T23:59:59.000001Z",
    ])
    def test_field_ranges_agree_with_parse_timestamp(self, text):
        micros, ok = _canonical_micros([text])
        try:
            want = _micros(parse_timestamp(text))
        except ValueError:
            assert not ok[0]
        else:
            assert ok[0] and micros[0] == want

    def test_mixed_chunk_agrees_with_parse_timestamp(self, tmp_path):
        # numpy refuses 29 February 2023, so its shape group goes whole to
        # parse_timestamp; numpy's reading of year 0000 is never used
        stamps = [
            "2022-01-01T00:00:00Z", "2023-02-29T00:00:00Z", "2022-06-01T12:30:00.250000Z",
            "0000-12-31T00:00:00Z", "2022-03-04T05:06:07z", "2022-03-04T05:06:07+02:00",
            "2024-02-29T23:59:59Z", "2023-02-28T00:00:00.000001Z",
        ]
        micros, parsed = _stamp_micros(stamps)
        for text, got, ok in zip(stamps, micros.tolist(), parsed.tolist()):
            try:
                want = _micros(parse_timestamp(text))
            except ValueError:
                assert not ok, text
            else:
                assert ok and got == want, text
        path = tmp_path / "events.csv"
        path.write_text("\n".join([HEADER] + [f"u{n},i1,view,{t},1" for n, t in enumerate(stamps)]))
        with pytest.raises(MalformedRecord, match="day is out of range") as exc:
            load_events(path)
        assert str(exc.value).startswith(f"{path}:3: ")

    def test_round_trip_before_year_1000(self, tmp_path):
        ts = datetime(1, 1, 1, tzinfo=UTC)
        assert format_timestamp(ts) == "0001-01-01T00:00:00Z"
        data = Dataset.from_events([InteractionEvent("u1", "i1", Kind.VIEW, ts)])
        write_events(data, tmp_path / "old.csv")
        assert load_events(tmp_path / "old.csv") == data


class TestOutOfRangeInstants:
    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_parse_timestamp_raises_value_error(self, text):
        with pytest.raises(ValueError, match="outside years 1-9999"):
            parse_timestamp(text)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_event_is_malformed_at_its_line(self, tmp_path, text, suffix):
        path = tmp_path / f"events{suffix}"
        rows = [("u1", "2022-01-01T00:00:00Z"), ("u2", text)]
        if suffix == ".csv":
            path.write_text("\n".join([HEADER] + [f"{u},i1,view,{t},1" for u, t in rows]) + "\n")
            line = 3
        else:
            path.write_text("".join(json.dumps({
                "user_id": u, "item_id": "i1", "kind": "view", "timestamp": t, "quantity": 1,
            }) + "\n" for u, t in rows))
            line = 2
        with pytest.raises(MalformedRecord, match="outside years 1-9999") as exc:
            load_events(path)
        assert str(exc.value).startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_boundary_flag_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "events.csv"
        path.write_text(f"{HEADER}\nu1,i1,view,2022-01-01T00:00:00Z,1\n")
        rc = dispatch(["stats", "--data", str(path), "--boundary", text])
        assert rc == EXIT_USAGE
        assert "--boundary" in capsys.readouterr().err

    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_config_boundary_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "events.csv"
        path.write_text(f"{HEADER}\nu1,i1,view,2022-01-01T00:00:00Z,1\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"boundary": text}))
        rc = dispatch(["stats", "--config", str(config), "--data", str(path)])
        assert rc == EXIT_DATA
        assert "outside years 1-9999" in capsys.readouterr().err


class TestOverLongCells:
    """A cell over ``csv.field_size_limit()`` is a data error at its line."""

    LONG = "x" * 200_000

    def test_interactions_cell(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(f"{HEADER}\nu1,i1,view,2022-01-01T00:00:00Z,1\n\n"
                        f"u1,{self.LONG},view,2022-01-01T00:00:00Z,1\n")
        with pytest.raises(MalformedRecord, match="field larger than field limit") as exc:
            load_events(path)
        assert str(exc.value).startswith(f"{path}:4: ")
        rc = dispatch(["stats", "--data", str(path), "--boundary", "2022-06-01T00:00:00Z"])
        assert rc == EXIT_DATA
        assert f"{path}:4: " in capsys.readouterr().err

    def test_earlier_bad_record_comes_first(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(f"{HEADER}\nu1,i1,view,later,1\n"
                        f"u1,{self.LONG},view,2022-01-01T00:00:00Z,1\n")
        with pytest.raises(MalformedRecord) as exc:
            load_events(path)
        assert exc.value.line_no == 2

    def test_sidecar_numeric_cell(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text(f"{HEADER}\nu1,i1,view,2022-01-01T00:00:00Z,1\n")
        users = tmp_path / "events.users.csv"
        users.write_text(f"user_id,age:num\nu1,20\nu2,{'1' * 200_000}\n")
        with pytest.raises(MalformedRecord, match="field larger than field limit") as exc:
            load_feature_table(users, "user_id")
        assert str(exc.value).startswith(f"{users}:3: ")
        rc = dispatch(["stats", "--data", str(path), "--boundary", "2022-06-01T00:00:00Z"])
        assert rc == EXIT_DATA
        assert f"{users}:3: " in capsys.readouterr().err


@st.composite
def logs(draw):
    """A Dataset whose events share instants, in any given order."""
    events = [
        InteractionEvent(draw(st.sampled_from(USER_IDS)), draw(st.sampled_from(ITEM_IDS)),
                         kind, datetime(2022, 1, 1, tzinfo=UTC) + timedelta(hours=h),
                         draw(st.integers(1, 3)) if kind is Kind.SALE else 1)
        for kind, h in draw(st.lists(st.tuples(st.sampled_from(Kind), st.integers(0, 6)),
                                     max_size=20))
    ]
    return Dataset.from_events(events)


class TestColumnSplitAndWrite:
    @settings(max_examples=200, deadline=None)
    @given(data=logs(), hour=st.integers(-1, 8))
    def test_split_matches_event_filter(self, data, hour):
        boundary = datetime(2022, 1, 1, tzinfo=UTC) + timedelta(hours=hour)
        split = temporal_split(data, boundary)
        assert split.train == Dataset.from_events(e for e in data.events if e.timestamp < boundary)
        assert split.test == Dataset.from_events(e for e in data.events if e.timestamp >= boundary)

    @settings(max_examples=100, deadline=None)
    @given(data=logs(), suffix=st.sampled_from([".csv", ".jsonl"]))
    def test_write_then_load_is_identity(self, data, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"events{suffix}"
            write_events(data, path)
            assert load_events(path) == data

    def test_columns_are_read_only(self):
        data = Dataset.from_events([InteractionEvent("u1", "i1", Kind.VIEW,
                                                     datetime(2022, 1, 1, tzinfo=UTC))])
        for col in (data.user, data.item, data.sale, data.quantity, data.timestamp):
            with pytest.raises(ValueError):
                col[0] = col[0]

    def test_event_outside_declared_universe_rejected(self):
        event = InteractionEvent("u1", "i1", Kind.VIEW, datetime(2022, 1, 1, tzinfo=UTC))
        with pytest.raises(ValueError, match="declared universe"):
            Dataset.from_events([event], users={"u2"})


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_evaluate_builds_no_event_objects(tmp_path, monkeypatch, suffix):
    """Loading a CSV or JSONL log and evaluating it reads the columns only."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth_users": 200, "synth_items": 40, "synth_sparsity": 0.85, "seed": 3,
        "als_factors": 4, "als_iterations": 3, "forest_trees": 3,
        "forest_negatives_per_user": 4,
    }))
    assert dispatch(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == EXIT_OK
    data = tmp_path / "data" / f"interactions{suffix}"
    if suffix == ".jsonl":  # next to the generator's manifest, which holds the boundary
        write_events(load_events(tmp_path / "data" / "interactions.csv"), data)

    def refuse(self, *args, **kwargs):
        raise AssertionError("an InteractionEvent was built")

    monkeypatch.setattr(InteractionEvent, "__init__", refuse)
    argv = ["evaluate", "--config", str(config), "--data", str(data),
            "--out", str(tmp_path / "run")]
    assert dispatch(argv) == EXIT_OK
    assert (tmp_path / "run" / "report.json").exists()
