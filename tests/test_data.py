"""Core data model: ingestion, splitting, segmentation, popularity, stats."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylebench.data import (
    Dataset,
    FeatureColumn,
    FeatureTable,
    InteractionEvent,
    Kind,
    Segment,
    dataset_stats,
    format_timestamp,
    load_events,
    load_feature_table,
    parse_timestamp,
    popularity_table,
    segment_users,
    temporal_split,
    write_events,
)
from stylebench.errors import (
    DataError,
    MalformedRecord,
    NonPositiveQuantity,
    UnknownKind,
)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def ev(user, item, kind, hours, quantity=1):
    return InteractionEvent(user, item, kind, T0 + timedelta(hours=hours), quantity)


def write_csv(path, rows):
    header = "user_id,item_id,kind,timestamp,quantity"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestIngestion:
    def test_three_valid_rows_sorted(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, [
            "u2,i1,view,2022-01-03T00:00:00Z,1",
            "u1,i1,sale,2022-01-01T00:00:00Z,2",
            "u1,i2,view,2022-01-02T00:00:00Z,1",
        ])
        data = load_events(f)
        assert len(data.events) == 3
        stamps = [e.timestamp for e in data.events]
        assert stamps == sorted(stamps)
        assert data.users == {"u1", "u2"}
        assert data.items == {"i1", "i2"}

    def test_empty_file(self, tmp_path):
        f = tmp_path / "events.csv"
        f.write_text("", encoding="utf-8")
        data = load_events(f)
        assert data.events == ()
        assert data.users == frozenset()
        assert data.items == frozenset()

    def test_zero_quantity_names_row(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, [
            "u1,i1,view,2022-01-01T00:00:00Z,1",
            "u1,i2,sale,2022-01-02T00:00:00Z,0",
        ])
        with pytest.raises(NonPositiveQuantity) as exc:
            load_events(f)
        assert exc.value.line_no == 3

    def test_unknown_kind(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, ["u1,i1,return,2022-01-01T00:00:00Z,1"])
        with pytest.raises(UnknownKind):
            load_events(f)

    def test_bad_timestamp(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, ["u1,i1,view,yesterday,1"])
        with pytest.raises(MalformedRecord):
            load_events(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_events(tmp_path / "absent.csv")

    def test_jsonl(self, tmp_path):
        f = tmp_path / "events.jsonl"
        f.write_text(
            '{"user_id": "u1", "item_id": "i1", "kind": "sale", '
            '"timestamp": "2022-01-01T00:00:00Z", "quantity": 3}\n',
            encoding="utf-8",
        )
        data = load_events(f)
        assert data.events[0].quantity == 3
        assert data.events[0].kind is Kind.SALE

    @pytest.mark.parametrize("quantity", ["2.7", "true", "2.0", '"2.5"', "[2]"])
    def test_jsonl_quantity_must_be_an_integer(self, tmp_path, quantity):
        f = tmp_path / "events.jsonl"
        row = (
            '{"user_id": "u1", "item_id": "i1", "kind": "sale", '
            '"timestamp": "2022-01-01T00:00:00Z", "quantity": %s}\n'
        )
        f.write_text(row % "3" + row % quantity, encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            load_events(f)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("quantity", [
        "1_0", " +3 ", "+3", "3 ", "\u0663", "-2", pytest.param("1" * 5000, id="5000-digits"),
    ])
    def test_integer_string_quantity_is_ascii_digits_only(self, tmp_path, quantity):
        f = tmp_path / "events.csv"
        write_csv(f, [
            "u1,i1,sale,2022-01-01T00:00:00Z,1",
            f"u1,i2,sale,2022-01-02T00:00:00Z,{quantity}",
        ])
        with pytest.raises(MalformedRecord, match="is not an integer") as exc:
            load_events(f)
        assert exc.value.line_no == 3

    def test_jsonl_quantity_string_is_ascii_digits_only(self, tmp_path):
        f = tmp_path / "events.jsonl"
        f.write_text(
            '{"user_id": "u1", "item_id": "i1", "kind": "sale", '
            '"timestamp": "2022-01-01T00:00:00Z", "quantity": "1_0"}\n',
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord, match="is not an integer") as exc:
            load_events(f)
        assert exc.value.line_no == 1

    def test_jsonl_integer_string_quantity_accepted(self, tmp_path):
        f = tmp_path / "events.jsonl"
        f.write_text(
            '{"user_id": "u1", "item_id": "i1", "kind": "sale", '
            '"timestamp": "2022-01-01T00:00:00Z", "quantity": "4"}\n',
            encoding="utf-8",
        )
        assert load_events(f).events[0].quantity == 4

    def test_view_with_quantity_over_one_rejected(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, ["u1,i1,view,2022-01-01T00:00:00Z,2"])
        with pytest.raises(MalformedRecord):
            load_events(f)

    def test_bad_row_after_blank_lines_names_its_physical_line(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, ["u1,i1,view,2022-01-01T00:00:00Z,1", "", "", "u1,i2,view,later,1"])
        with pytest.raises(MalformedRecord) as exc:
            load_events(f)
        assert exc.value.line_no == 5

    def test_bad_row_after_quoted_newline_names_its_physical_line(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, ['"u\n1",i1,view,2022-01-01T00:00:00Z,1', "u1,i2,view,later,1"])
        with pytest.raises(MalformedRecord) as exc:
            load_events(f)
        assert exc.value.line_no == 4

    def test_extra_cells_rejected(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, [
            "u1,i1,view,2022-01-01T00:00:00Z,1",
            "u1,i2,sale,2022-01-02T00:00:00Z,1,x,y",
        ])
        with pytest.raises(MalformedRecord, match="expected 5 cells, got 7") as exc:
            load_events(f)
        assert exc.value.line_no == 3

    def test_repeated_header_column_rejected(self, tmp_path):
        f = tmp_path / "events.csv"
        f.write_text(
            "user_id,item_id,kind,timestamp,quantity,quantity\n"
            "u1,i1,sale,2022-01-01T00:00:00Z,1,2\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord, match="'quantity' appears twice") as exc:
            load_events(f)
        assert exc.value.line_no == 1

    def test_quantity_beyond_the_cap_rejected(self, tmp_path):
        f = tmp_path / "events.csv"
        write_csv(f, [
            f"u1,i1,sale,2022-01-01T00:00:00Z,{2**31 - 1}",
            f"u1,i2,sale,2022-01-02T00:00:00Z,{2**31}",
        ])
        with pytest.raises(MalformedRecord, match="not below") as exc:
            load_events(f)
        assert exc.value.line_no == 3

    def test_round_trip_identity(self, tmp_path):
        users = FeatureTable(
            ids=("u1", "u2"),
            columns={
                "age": FeatureColumn(kind="numeric", values=np.array([31.0, 55.5])),
                "brand_pref": FeatureColumn(
                    kind="categorical",
                    values=np.array(["a", "b"], dtype=object),
                    vocabulary=("a", "b"),
                ),
            },
        )
        items = FeatureTable(
            ids=("i1",),
            columns={"price": FeatureColumn(kind="numeric", values=np.array([19.99]))},
        )
        original = Dataset.from_events(
            [ev("u1", "i1", Kind.SALE, 0, 2), ev("u2", "i1", Kind.VIEW, 1)],
            users,
            items,
        )
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"out.{fmt}"
            write_events(original, path)
            again = load_events(path)
            assert again == original


# ISO 8601 forms outside RFC 3339: a week date, the basic format, a time
# without seconds or minutes, and an offset without a colon
NON_RFC3339 = [
    "2022-W35-1T00:00:00Z",
    "20220828T000000Z",
    "2022-08-28T00Z",
    "2022-08-28T00:00Z",
    "2022-08-28T00:00:00+0100",
]


class TestTimestamps:
    def test_z_and_offset_forms(self):
        a = parse_timestamp("2022-03-05T14:23:11Z")
        b = parse_timestamp("2022-03-05T14:23:11+00:00")
        c = parse_timestamp("2022-03-05T15:23:11+01:00")
        assert a == b == c

    def test_naive_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("2022-03-05T14:23:11")

    def test_format_round_trip(self):
        ts = parse_timestamp("2022-03-05T14:23:11Z")
        assert format_timestamp(ts) == "2022-03-05T14:23:11Z"
        assert parse_timestamp(format_timestamp(ts)) == ts

    def test_microseconds_survive_round_trip(self):
        ts = parse_timestamp("2022-03-05T14:23:11.123456Z")
        assert parse_timestamp(format_timestamp(ts)) == ts

    @pytest.mark.parametrize("text, micros", [
        ("2022-03-05t14:23:11z", 0),
        ("2022-03-05 14:23:11.5+00:00", 500000),
        (" 2022-03-05T15:23:11+01:00 ", 0),
    ])
    def test_rfc3339_variants_accepted(self, text, micros):
        want = datetime(2022, 3, 5, 14, 23, 11, micros, tzinfo=timezone.utc)
        assert parse_timestamp(text) == want

    @pytest.mark.parametrize("text", NON_RFC3339)
    def test_iso_forms_outside_rfc3339_rejected(self, text):
        # datetime.fromisoformat reads each of these as some time
        with pytest.raises(ValueError, match="not an RFC 3339 date-time"):
            parse_timestamp(text)

    @pytest.mark.parametrize("text", NON_RFC3339)
    def test_non_rfc3339_row_is_malformed(self, tmp_path, text):
        f = tmp_path / "events.csv"
        write_csv(f, ["u1,i1,view,2022-01-01T00:00:00Z,1", f"u1,i2,view,{text},1"])
        with pytest.raises(MalformedRecord) as exc:
            load_events(f)
        assert str(exc.value).startswith(f"{f}:3: ")

    def test_naive_split_boundary_rejected(self):
        from datetime import datetime

        data = Dataset.from_events([ev("u1", "i1", Kind.VIEW, 1)])
        with pytest.raises(ValueError):
            temporal_split(data, datetime(2022, 6, 1))


class TestTemporalSplit:
    def test_forced_partition(self):
        data = Dataset.from_events(
            [ev("u1", "i1", Kind.VIEW, 1), ev("u1", "i2", Kind.VIEW, 2),
             ev("u2", "i1", Kind.VIEW, 3)]
        )
        split = temporal_split(data, T0 + timedelta(hours=2.5))
        assert [e.timestamp.hour for e in split.train.events] == [1, 2]
        assert [e.timestamp.hour for e in split.test.events] == [3]
        assert split.train.users == {"u1"}
        assert split.test.users == {"u2"}

    def test_boundary_before_everything(self):
        data = Dataset.from_events([ev("u1", "i1", Kind.VIEW, 5)])
        split = temporal_split(data, T0)
        assert split.train.events == ()
        assert len(split.test.events) == 1

    def test_boundary_event_goes_to_test(self):
        data = Dataset.from_events([ev("u1", "i1", Kind.VIEW, 2)])
        split = temporal_split(data, T0 + timedelta(hours=2))
        assert split.train.events == ()
        assert len(split.test.events) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 1000)),
            max_size=60,
        ),
        st.integers(-10, 1010),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, rows, boundary_hours):
        events = [ev(f"u{u}", f"i{i}", Kind.VIEW, h) for u, i, h in rows]
        data = Dataset.from_events(events)
        split = temporal_split(data, T0 + timedelta(hours=boundary_hours))
        assert len(split.train.events) + len(split.test.events) == len(data.events)
        for e in split.train.events:
            assert e.timestamp < split.boundary
        for e in split.test.events:
            assert e.timestamp >= split.boundary


class TestSegmentation:
    def split_for(self, train_events, test_events):
        data = Dataset.from_events(train_events + test_events)
        return temporal_split(data, T0 + timedelta(hours=100))

    def test_view_user(self):
        split = self.split_for(
            [ev("u1", "i1", Kind.VIEW, 1)], [ev("u1", "i1", Kind.VIEW, 101)]
        )
        assert segment_users(split).mapping["u1"] is Segment.VIEW

    def test_sale_dominates_view(self):
        split = self.split_for(
            [ev("u1", "i1", Kind.VIEW, 1), ev("u1", "i1", Kind.SALE, 2)],
            [ev("u1", "i1", Kind.VIEW, 101)],
        )
        assert segment_users(split).mapping["u1"] is Segment.SALE

    def test_absent_from_train_is_new(self):
        split = self.split_for(
            [ev("u2", "i1", Kind.SALE, 1)], [ev("u1", "i1", Kind.VIEW, 101)]
        )
        assert segment_users(split).mapping["u1"] is Segment.NEW

    def test_only_test_users_labeled(self):
        split = self.split_for(
            [ev("u2", "i1", Kind.SALE, 1)], [ev("u1", "i1", Kind.VIEW, 101)]
        )
        assert set(segment_users(split).mapping) == {"u1"}

    def test_invariant_to_test_period_events(self):
        train = [ev("u1", "i1", Kind.VIEW, 1), ev("u2", "i2", Kind.SALE, 2)]
        test = [
            ev("u1", "i2", Kind.SALE, 101),
            ev("u2", "i1", Kind.VIEW, 102),
            ev("u3", "i1", Kind.VIEW, 103),
        ]
        split = self.split_for(train, test)
        original = segment_users(split).mapping
        # replace all test events with bare views by the same users
        gutted = self.split_for(
            train,
            [ev(u, "i1", Kind.VIEW, 101) for u in ("u1", "u2", "u3")],
        )
        assert segment_users(gutted).mapping == original


class TestPopularity:
    def test_direct_summation(self):
        data = Dataset.from_events([
            ev("u1", "A", Kind.SALE, 1, 2),
            ev("u2", "A", Kind.SALE, 2, 3),
            ev("u1", "B", Kind.SALE, 3, 1),
        ])
        pop = popularity_table(data)
        assert pop.quantities == {"A": 5, "B": 1}
        assert pop.ranking == ("A", "B")

    def test_no_sales(self):
        data = Dataset.from_events([
            ev("u1", "B", Kind.VIEW, 1), ev("u1", "A", Kind.VIEW, 2),
        ])
        pop = popularity_table(data)
        assert pop.quantities == {"A": 0, "B": 0}
        assert pop.ranking == ("A", "B")

    def test_tie_broken_by_id(self):
        data = Dataset.from_events([
            ev("u1", "B", Kind.SALE, 1, 4), ev("u2", "A", Kind.SALE, 2, 4),
        ])
        assert popularity_table(data).ranking == ("A", "B")

    def test_total_meets_sale_quantities(self):
        data = Dataset.from_events([
            ev("u1", "A", Kind.SALE, 1, 2),
            ev("u1", "A", Kind.VIEW, 2),
            ev("u2", "B", Kind.SALE, 3, 7),
        ])
        assert popularity_table(data).total_sold == 9


class TestStats:
    def test_unobserved_cells(self):
        # 10 users x 10 items (declared universes), 1 sale + 4 views
        from stylebench.data import TemporalSplit

        users = frozenset(f"u{n}" for n in range(10))
        items = frozenset(f"i{n}" for n in range(10))
        train_events = tuple(
            [ev("u0", "i0", Kind.SALE, 0)]
            + [ev("u1", f"i{n}", Kind.VIEW, n) for n in range(1, 5)]
        )
        train = Dataset(events=train_events, users=users, items=items)
        test = Dataset.from_events([ev("u0", "i0", Kind.VIEW, 200)])
        split = TemporalSplit(train=train, test=test, boundary=T0 + timedelta(hours=100))
        stats = dataset_stats(split, segment_users(split))
        assert stats.train_users == 10 and stats.train_items == 10
        assert stats.train_sales == 1 and stats.train_views == 4
        d = stats.as_dict()
        assert d["train"]["unobserved"] == 95
        assert d["train"]["unobserved_pct"] == pytest.approx(95.0)

    def test_split_recounts_generated_events(self):
        # event counts on both sides of a split always sum to the total
        rng = np.random.default_rng(7)
        events = []
        for n in range(300):
            kind = Kind.SALE if rng.random() < 0.1 else Kind.VIEW
            qty = int(rng.integers(1, 4)) if kind is Kind.SALE else 1
            events.append(
                ev(f"u{rng.integers(0, 40)}", f"i{rng.integers(0, 30)}", kind,
                   float(rng.uniform(0, 12 * 720)), qty)
            )
        data = Dataset.from_events(events)
        split = temporal_split(data, T0 + timedelta(hours=8 * 720))
        assert split.train.n_sales + split.test.n_sales == data.n_sales
        assert split.train.n_views + split.test.n_views == data.n_views

    def test_empty_test_side(self):
        data = Dataset.from_events([ev("u1", "i1", Kind.VIEW, 1)])
        split = temporal_split(data, T0 + timedelta(hours=100))
        stats = dataset_stats(split, segment_users(split))
        assert stats.test_users == 0
        assert stats.segment_counts == {
            "new_users": 0, "view_users": 0, "sale_users": 0,
        }


class TestFeatureTables:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(
                ids=("a", "a"),
                columns={"x": FeatureColumn(kind="numeric", values=np.array([1.0, 2.0]))},
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(
                ids=("a", "b"),
                columns={"x": FeatureColumn(kind="numeric", values=np.array([1.0]))},
            )

    def test_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            FeatureColumn(
                kind="categorical",
                values=np.array(["a", "z"], dtype=object),
                vocabulary=("a", "b"),
            )

    def test_row_lookup(self):
        table = FeatureTable(
            ids=("a", "b"),
            columns={"x": FeatureColumn(kind="numeric", values=np.array([1.0, 2.0]))},
        )
        assert table.row("b") == {"x": 2.0}
        assert "a" in table and "c" not in table

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_numeric_cell_named_with_line(self, tmp_path, cell):
        path = tmp_path / "bad.users.csv"
        path.write_text(f"user_id,age:num\nu1,20\nu2,{cell}\nu3,30\n")
        with pytest.raises(MalformedRecord) as exc:
            load_feature_table(path, "user_id")
        assert exc.value.line_no == 3
        assert "age" in str(exc.value)

    def test_unparseable_numeric_cell_named_with_line(self, tmp_path):
        path = tmp_path / "bad.users.csv"
        path.write_text("user_id,age:num\nu1,20\nu2,30\nu3,thirty\n")
        with pytest.raises(MalformedRecord) as exc:
            load_feature_table(path, "user_id")
        assert exc.value.line_no == 4
        assert str(exc.value).startswith(f"{path}:4:")

    def test_repeated_id_named_with_line(self, tmp_path):
        path = tmp_path / "bad.items.csv"
        path.write_text("item_id,price:num\ni1,20\ni2,30\ni1,40\n")
        with pytest.raises(MalformedRecord) as exc:
            load_feature_table(path, "item_id")
        assert exc.value.line_no == 4
        assert str(exc.value).startswith(f"{path}:4:")
        assert "'i1'" in str(exc.value)

    def test_repeated_header_column_rejected(self, tmp_path):
        path = tmp_path / "bad.users.csv"
        path.write_text("user_id,age:num,age:cat\nu1,20,a\n")
        with pytest.raises(MalformedRecord) as exc:
            load_feature_table(path, "user_id")
        assert exc.value.line_no == 1
        assert "age" in str(exc.value)

    def test_bad_row_after_quoted_newline_names_its_physical_line(self, tmp_path):
        path = tmp_path / "bad.users.csv"
        path.write_text('user_id,style:cat\nu1,"long\nform"\nu2\n')
        with pytest.raises(MalformedRecord) as exc:
            load_feature_table(path, "user_id")
        assert exc.value.line_no == 4
