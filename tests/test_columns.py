"""Dataset's integer event columns and the stages that read them.

Each stage is checked against its per-event loop version in
``tests/oracles.py`` over small random logs: declared universes wider than
the events, views-only training, pairs with both a view and a sale, empty
sides and every grading mode.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    loop_build_confidence,
    loop_build_relevance,
    loop_popularity_table,
    loop_purchased_in_train,
    loop_segment_users,
    row_slices,
)
from stylebench.als import AlsConfig, build_confidence
from stylebench.data import (
    Dataset,
    InteractionEvent,
    Kind,
    Segment,
    TemporalSplit,
    popularity_table,
    id_rows,
    segment_users,
    take_rows,
)
from stylebench.errors import EmptyTraining
from stylebench.harness import purchase_masks
from stylebench.metrics import GRADING_MODES, build_relevance

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)
BOUNDARY = T0 + timedelta(hours=100)

# "u10" sorts before "u2", so id order differs from numeric order
USERS = [f"u{j}" for j in range(12)]
ITEMS = [f"i{j}" for j in range(12)]


@st.composite
def sides(draw, start_hour):
    """One side of a split: events in time order plus declared universes
    that may hold ids without events."""
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(USERS), st.sampled_from(ITEMS),
            st.sampled_from([Kind.SALE, Kind.VIEW]), st.integers(1, 4),
        ),
        max_size=25,
    ))
    if rows and draw(st.booleans()):  # the first pair gets both a view and a sale
        user, item, _, _ = rows[0]
        rows += [(user, item, Kind.SALE, 2), (user, item, Kind.VIEW, 1)]
    events = tuple(
        InteractionEvent(u, i, kind, T0 + timedelta(hours=start_hour + h),
                         q if kind is Kind.SALE else 1)
        for h, (u, i, kind, q) in enumerate(rows)
    )
    extra_users = draw(st.sets(st.sampled_from(USERS), max_size=3))
    extra_items = draw(st.sets(st.sampled_from(ITEMS), max_size=3))
    return Dataset.from_events(
        events,
        users=frozenset(e.user_id for e in events) | extra_users,
        items=frozenset(e.item_id for e in events) | extra_items,
    )


def views_only(data: Dataset) -> Dataset:
    events = tuple(
        InteractionEvent(e.user_id, e.item_id, Kind.VIEW, e.timestamp) for e in data.events
    )
    return Dataset.from_events(events, users=data.users, items=data.items)


@st.composite
def splits(draw):
    train = draw(sides(0))
    if draw(st.booleans()):
        train = views_only(train)
    test = draw(sides(100))
    return TemporalSplit(train=train, test=test, boundary=BOUNDARY)


@settings(max_examples=200, deadline=None)
@given(data=sides(0))
def test_columns_decode_each_event(data):
    assert data.user_ids == tuple(sorted(data.users))
    assert data.item_ids == tuple(sorted(data.items))
    decoded = [
        (data.user_ids[u], data.item_ids[i], Kind.SALE if s else Kind.VIEW, q)
        for u, i, s, q in zip(data.user.tolist(), data.item.tolist(),
                              data.sale.tolist(), data.quantity.tolist())
    ]
    assert decoded == [(e.user_id, e.item_id, e.kind, e.quantity) for e in data.events]
    assert [data.user.dtype, data.item.dtype, data.quantity.dtype] == [np.int64] * 3
    assert data.sale.dtype == bool
    assert data.n_sales == sum(e.kind is Kind.SALE for e in data.events)
    assert data.n_views == sum(e.kind is Kind.VIEW for e in data.events)


@settings(max_examples=300, deadline=None)
@given(split=splits(), candidate_pick=st.sets(st.sampled_from(ITEMS)))
def test_column_stages_match_event_loops(split, candidate_pick):
    train, test = split.train, split.test
    cfg = AlsConfig(sale_weight=3.0)
    if train.events:
        got, want = build_confidence(train, cfg), loop_build_confidence(train, cfg)
        for part in ("indptr", "indices", "data"):
            g, w = getattr(got.ratings, part), getattr(want.ratings, part)
            assert g.dtype == w.dtype and np.array_equal(g, w), part
        assert got.ratings.shape == want.ratings.shape
        assert (got.users, got.items) == (want.users, want.items)
    else:
        for build in (build_confidence, loop_build_confidence):
            with pytest.raises(EmptyTraining):
                build(train, cfg)

    codes = segment_users(split)
    assert codes.shape == (len(test.user_ids),)
    got_segments = {u: list(Segment)[c] for u, c in zip(test.user_ids, codes.tolist())}
    assert got_segments == loop_segment_users(split)
    for side in (train, test):
        got_pop, want_pop = popularity_table(side), loop_popularity_table(side)
        assert got_pop.quantities == want_pop.quantities
        assert all(type(q) is int for q in got_pop.quantities.values())
        assert got_pop.ranking == want_pop.ranking

    # the harness's candidates, and an arbitrary subset that drops some
    for candidates in (train.item_ids, sorted(candidate_pick)):
        for grading in GRADING_MODES:
            indptr, positions, grades = build_relevance(test, candidates, grading)
            assert positions.dtype == np.int64 and grades.dtype == np.float64
            assert len(indptr) == len(test.user_ids) + 1
            assert indptr[0] == 0 and indptr[-1] == len(positions) == len(grades)
            got_ids = {}
            for user, pos, g in zip(
                test.user_ids, row_slices(indptr, positions), row_slices(indptr, grades)
            ):
                ids = [candidates[p] for p in pos]
                assert ids == sorted(set(ids))
                got_ids[user] = dict(zip(ids, g.tolist()))
            assert got_ids == loop_build_relevance(test, candidates, grading)

    # the test users, then training users repeated in another order and an
    # id absent from both sides
    cand_pos = {item: p for p, item in enumerate(train.item_ids)}
    bought = loop_purchased_in_train(train)
    ids = test.user_ids + train.user_ids[::-1] + ("nobody",)
    indptr, got_masks = purchase_masks(train, ids)
    assert got_masks.dtype == np.int64 and len(indptr) == len(ids) + 1
    assert [m.tolist() for m in row_slices(indptr, got_masks)] == [
        sorted(cand_pos[i] for i in bought.get(user, ())) for user in ids
    ]


def test_views_only_training_has_no_masks():
    train = Dataset.from_events([
        InteractionEvent("u1", "i1", Kind.VIEW, T0),
        InteractionEvent("u2", "i2", Kind.VIEW, T0 + timedelta(hours=1)),
    ])
    for data in (train, Dataset.from_events([])):
        indptr, positions = purchase_masks(data, ["u1", "u2", "u3"])
        assert indptr.tolist() == [0, 0, 0, 0] and len(positions) == 0


def test_columns_are_not_compared():
    events = [InteractionEvent("u1", "i1", Kind.SALE, T0, 2)]
    decoded, fresh = Dataset.from_events(events), Dataset.from_events(events)
    decoded.user, decoded.sale  # noqa: B018 - decode two columns on one side only
    assert decoded == fresh
    assert hash(decoded) == hash(fresh)


ragged_rows = st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows=ragged_rows, data=st.data())
def test_take_rows_matches_slices(rows, data):
    # empty rows, an empty selection and repeated rows, for two flat arrays
    indptr = np.cumsum([0] + [len(r) for r in rows])
    flat = np.array([v for r in rows for v in r], dtype=np.int64)
    other = flat * 0.5
    pick = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8) if rows else st.just([]))
    got_ptr, got, got_other = take_rows(indptr, np.array(pick, dtype=np.int64), flat, other)
    assert got_ptr.dtype == np.int64 and len(got_ptr) == len(pick) + 1
    want = [row_slices(indptr, flat)[r] for r in pick]
    assert [s.tolist() for s in row_slices(got_ptr, got)] == [w.tolist() for w in want]
    assert got_other.tolist() == (got * 0.5).tolist()


@settings(max_examples=200, deadline=None)
@given(
    universe=st.lists(st.sampled_from(USERS), unique=True).map(tuple),
    ids=st.lists(st.sampled_from(USERS)),
)
def test_id_rows_matches_a_dict(universe, ids):
    # any universe order, the empty one too; ids repeat and may be absent
    position = dict(zip(universe, range(len(universe))))
    got = id_rows(universe, ids)
    assert got.dtype == np.int64
    assert got.tolist() == [position.get(i, len(universe)) for i in ids]
