"""The single ranking path against brute-force and per-user oracles."""

from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_tie_aware_ndcg,
    brute_force_top_k,
    per_user_random_baseline,
    per_user_rank_users,
    per_user_tie_aware_ndcg,
    pop_ranking_mp,
    ragged,
)
from stylebench import recommend
from stylebench.data import Dataset, InteractionEvent, Kind, popularity_table
from stylebench.metrics import random_baseline_ndcg, tie_aware_ndcg_arrays
from stylebench.recommend import rank_users, score_mp_users

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)

# few distinct values, so most vectors carry large tie groups
tied_scores = st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, -3.0]), min_size=1, max_size=30)


def by_user(ranked):
    """{user row: (top positions, ranked row)} from rank_users' blocks; a
    one-row block stands for each of its users."""
    out = {}
    for users, top, rows in ranked:
        assert top.dtype == np.int64 and users.dtype == np.int64
        assert len(top) == len(rows) and len(rows) in (1, len(users))
        for r, user in enumerate(users.tolist()):
            out[user] = (top[r % len(top)], rows[r % len(rows)])
    return out


def masks_over(n_users, masks):
    """A {user row: positions} dict as ragged masks over ``n_users`` rows."""
    return ragged([masks.get(u, np.empty(0, dtype=np.int64)) for u in range(n_users)])


def rank_one(vec, k, exclude):
    """rank_users over one user's one-row block whose mask is ``exclude``."""
    [(_, top, ranked_by)] = rank_users(
        [(np.arange(1), vec[None, :])], k, masks_over(1, {0: np.array(exclude, dtype=np.int64)})
    )
    return top[0], ranked_by[0]


def same_bits(value, reference):
    """A block kernel's float64 (NaN when undefined) equals a per-user
    reference (None when undefined) bit for bit."""
    if reference is None:
        assert np.isnan(value)
    else:
        assert np.float64(value).view(np.uint64) == np.float64(reference).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(scores=tied_scores, k=st.integers(1, 40), data=st.data())
def test_rank_scores_matches_oracle(scores, k, data):
    n = len(scores)
    exclude = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    vec = np.array(scores)
    top, ranked_by = rank_one(vec, k, exclude)
    masked = [float("-inf") if j in exclude else s for j, s in enumerate(scores)]
    want = brute_force_top_k(masked, k)
    assert top.dtype == np.int64
    assert top.tolist() == want
    assert ranked_by[top].tolist() == [masked[j] for j in want]
    assert ranked_by.tolist() == masked
    assert vec.tolist() == scores


@settings(max_examples=200, deadline=None)
@given(scores=tied_scores, k=st.integers(1, 40), data=st.data())
def test_rank_users_shared_vector_matches_rank_scores(scores, k, data):
    # one row for every user, as MP yields it; some users carry a purchase
    # mask (possibly empty) between unmasked ones
    n = len(scores)
    vec = np.array(scores)
    users = list(range(data.draw(st.integers(1, 6))))
    masks = {
        u: np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64)
        for u in data.draw(st.sets(st.sampled_from(users)))
    }
    got = by_user(rank_users([(np.arange(len(users)), vec[None, :])], k,
                             masks_over(len(users), masks)))
    assert sorted(got) == sorted(users)
    for user, (top, ranked_by) in got.items():
        exclude = set(masks.get(user, np.array([])).tolist())
        masked = [float("-inf") if j in exclude else s for j, s in enumerate(scores)]
        assert top.tolist() == brute_force_top_k(masked, k)
        assert ranked_by.tolist() == masked
    assert vec.tolist() == scores


@settings(max_examples=200, deadline=None)
@given(
    sales=st.lists(
        st.tuples(st.integers(0, 14), st.integers(1, 4)), max_size=40
    ),
    n_items=st.integers(1, 15),
    k=st.integers(1, 20),
)
def test_recommend_mp_matches_popularity_ranking(sales, n_items, k):
    # every item is viewed once, so unsold items stay in the table at 0
    events = [
        InteractionEvent("v", f"i{j:02d}", Kind.VIEW, T0, 1) for j in range(n_items)
    ]
    events += [
        InteractionEvent(f"u{n}", f"i{j % n_items:02d}", Kind.SALE,
                         T0 + timedelta(hours=n + 1), q)
        for n, (j, q) in enumerate(sales)
    ]
    pop = popularity_table(Dataset.from_events(events))
    users = sorted(["b", "a", "c"])
    candidates = sorted(pop.quantities)
    got = [
        (users[user], tuple(candidates[i] for i in top), tuple(ranked_by[top].tolist()))
        for user, (top, ranked_by) in by_user(
            rank_users(score_mp_users(pop, users, candidates), k)
        ).items()
    ]
    assert got == pop_ranking_mp(pop, users, k)


# the brute-force NDCG oracle enumerates every tie order, so keep n <= 7
small_tied_scores = st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, -3.0]), min_size=1, max_size=7)
grade_lists = st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=7, max_size=7)


@settings(max_examples=300, deadline=None)
@given(scores=small_tied_scores, grades=grade_lists, k=st.integers(1, 10), data=st.data())
def test_ndcg_from_the_ranking_matches_oracle(scores, grades, k, data):
    n = len(scores)
    exclude = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    candidates = [f"i{j}" for j in range(n)]
    top, ranked_by = rank_one(np.array(scores), k, exclude)
    positions = np.flatnonzero(grades[:n])
    [value] = tie_aware_ndcg_arrays(
        ranked_by[None, :], top[None, :], *ragged([positions], [np.array(grades)[positions]])
    )
    masked = {c: float("-inf") if j in exclude else scores[j] for j, c in enumerate(candidates)}
    oracle = brute_force_tie_aware_ndcg(masked, dict(zip(candidates, grades)), k)
    if oracle is None:
        assert np.isnan(value)
    else:
        assert abs(value - oracle) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), grades=grade_lists, k=st.integers(1, 10))
def test_random_baseline_matches_oracle_on_equal_scores(n, grades, k):
    rels = {f"i{j}": g for j, g in enumerate(grades[:n]) if g > 0.0}
    oracle = brute_force_tie_aware_ndcg({f"i{j}": 0.0 for j in range(n)}, rels, k)
    [value] = random_baseline_ndcg(*ragged([np.array(list(rels.values()))]), n, k)
    if oracle is None:
        assert np.isnan(value)
    else:
        assert abs(value - oracle) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(
    grades=st.lists(
        st.floats(min_value=0.0, max_value=1e6) | st.sampled_from([0.0, 1.0]),
        max_size=40,
    ),
    extra=st.integers(0, 10),
    k=st.integers(1, 60),
)
def test_random_baseline_equals_kernel_on_zeros(grades, extra, k):
    # grades sum in order, so a pairwise sum (np.sum) would differ in the last bits
    n = len(grades) + extra
    m = min(k, n)
    g = np.array(grades, dtype=np.float64)
    [want] = tie_aware_ndcg_arrays(
        np.zeros((1, n)), np.arange(m)[None, :], *ragged([np.arange(len(g))], [g])
    )
    [got] = random_baseline_ndcg(*ragged([g]), n, k)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


# -inf among the raw scores as well as from masks; 0.0 and 1.0 most often
block_scores = st.sampled_from([0.0, 0.0, 1.0, 1.0, 1.5, 2.0, -3.0, -np.inf])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_block_kernels_match_per_user_oracles(data):
    # heavy ties, -inf masks, k > n, users without a graded candidate, a
    # shared row mixed with masked users, and blocks cut by a pair budget
    # down to 1-3 pairs, all against the per-user kernels bit for bit
    draw = data.draw
    n = draw(st.integers(1, 12), label="n")
    users = list(range(draw(st.integers(1, 8), label="users")))
    shared = draw(st.booleans(), label="shared")
    row = st.lists(block_scores, min_size=n, max_size=n)
    block = np.array([draw(row)] if shared else [draw(row) for _ in users])
    masks = {
        u: np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64)
        for u in draw(st.sets(st.sampled_from(users)), label="masked")
    }
    positions, grades = {}, {}
    for u in users:
        positions[u] = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
        grades[u] = np.array(
            draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]),
                          min_size=len(positions[u]), max_size=len(positions[u]))),
            dtype=np.float64,
        )
    k = draw(st.integers(1, n + 3), label="k")
    budget = draw(st.sampled_from([1, 2, 3, recommend._RANK_PAIRS]), label="budget")

    before = block.copy()
    with mock.patch.object(recommend, "_RANK_PAIRS", budget):
        got = list(rank_users([(np.arange(len(users)), block)], k, masks_over(len(users), masks)))
    assert np.array_equal(block.view(np.uint64), before.view(np.uint64))
    # the oracle stream yields the shared row as one object for every user
    stream = [(u, block[0] if shared else block[r]) for r, u in enumerate(users)]
    want = {u: (top, vec) for u, top, vec in per_user_rank_users(stream, k, masks)}
    mine = by_user(got)
    assert sorted(mine) == sorted(users)
    for u in users:
        assert mine[u][0].tolist() == want[u][0].tolist()
        assert np.array_equal(mine[u][1].view(np.uint64), want[u][1].view(np.uint64))
    for block_users, top, rows in got:
        if len(rows) > 1:
            assert len(rows) <= max(1, budget // n)
        else:
            assert len(block_users) <= max(1, budget // top.shape[1])
        block_users = block_users.tolist()
        values = tie_aware_ndcg_arrays(
            rows, top,
            *ragged([positions[u] for u in block_users], [grades[u] for u in block_users]),
        )
        assert values.shape == (len(block_users),)
        for u, value in zip(block_users, values):
            top_u, vec = want[u]
            same_bits(value, per_user_tie_aware_ndcg(vec, vec[top_u], positions[u], grades[u]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_ndcg_sums_many_groups_in_rank_order(data):
    # many distinct scores make many tie groups, where a pairwise sum of the
    # gains would round differently from the per-user running sum
    draw = data.draw
    n = draw(st.integers(8, 60), label="n")
    users = list(range(draw(st.integers(1, 4), label="users")))
    row = st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
    block = np.array([draw(row) for _ in users])
    positions = {
        u: np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
        for u in users
    }
    grades = {
        u: np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=len(p), max_size=len(p))))
        for u, p in positions.items()
    }
    k = draw(st.integers(8, n + 3), label="k")
    [(got_users, top, rows)] = rank_users([(np.arange(len(users)), block)], k)
    got_users = got_users.tolist()
    values = tie_aware_ndcg_arrays(
        rows, top, *ragged([positions[u] for u in got_users], [grades[u] for u in got_users])
    )
    for r, u in enumerate(got_users):
        vec = block[r]
        [(_, want_top, _)] = per_user_rank_users([(u, vec)], k)
        assert top[r].tolist() == want_top.tolist()
        same_bits(values[r], per_user_tie_aware_ndcg(vec, vec[want_top], positions[u], grades[u]))


@settings(max_examples=300, deadline=None)
@given(
    graded=st.lists(st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 1e3), max_size=9),
                    max_size=8),
    extra=st.integers(0, 4),
    k=st.integers(1, 15),
)
def test_random_baseline_block_matches_per_user_oracle(graded, extra, k):
    n = max(map(len, graded), default=0) + extra
    grades = [np.array(g, dtype=np.float64) for g in graded]
    got = random_baseline_ndcg(*ragged(grades), n, k)
    assert got.shape == (len(grades),)
    for g, value in zip(grades, got):
        same_bits(value, per_user_random_baseline(g, n, k))
