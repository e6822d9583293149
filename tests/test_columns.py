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
)
from stylebench.als import AlsConfig, build_confidence
from stylebench.data import (
    Dataset,
    InteractionEvent,
    Kind,
    TemporalSplit,
    popularity_table,
    segment_users,
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
    return Dataset(
        events=events,
        users=frozenset(e.user_id for e in events) | extra_users,
        items=frozenset(e.item_id for e in events) | extra_items,
    )


def views_only(data: Dataset) -> Dataset:
    events = tuple(
        InteractionEvent(e.user_id, e.item_id, Kind.VIEW, e.timestamp) for e in data.events
    )
    return Dataset(events=events, users=data.users, items=data.items)


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

    assert segment_users(split).mapping == loop_segment_users(split).mapping
    for side in (train, test):
        got_pop, want_pop = popularity_table(side), loop_popularity_table(side)
        assert got_pop.quantities == want_pop.quantities
        assert all(type(q) is int for q in got_pop.quantities.values())
        assert got_pop.ranking == want_pop.ranking

    # the harness's candidates, and an arbitrary subset that drops some
    for candidates in (train.item_ids, sorted(candidate_pick)):
        for grading in GRADING_MODES:
            got_rel = build_relevance(test, candidates, grading)
            assert got_rel == loop_build_relevance(test, candidates, grading)

    cand_pos = {item: p for p, item in enumerate(train.item_ids)}
    want_masks = {
        user: sorted(cand_pos[i] for i in items)
        for user, items in loop_purchased_in_train(train).items()
    }
    got_masks = purchase_masks(train)
    assert {u: m.tolist() for u, m in got_masks.items()} == want_masks
    assert all(m.dtype == np.int64 for m in got_masks.values())


def test_views_only_training_has_no_masks():
    train = Dataset.from_events([
        InteractionEvent("u1", "i1", Kind.VIEW, T0),
        InteractionEvent("u2", "i2", Kind.VIEW, T0 + timedelta(hours=1)),
    ])
    assert purchase_masks(train) == {}
    assert purchase_masks(Dataset.from_events([])) == {}


def test_columns_are_not_compared():
    events = [InteractionEvent("u1", "i1", Kind.SALE, T0, 2)]
    decoded, fresh = Dataset.from_events(events), Dataset.from_events(events)
    decoded.user, decoded.sale  # noqa: B018 - decode two columns on one side only
    assert decoded == fresh
    assert hash(decoded) == hash(fresh)
