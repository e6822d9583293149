"""The single ranking path against brute-force oracles."""

from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_tie_aware_ndcg, brute_force_top_k, pop_ranking_mp
from stylebench.data import Dataset, InteractionEvent, Kind, popularity_table
from stylebench.metrics import random_baseline_ndcg, tie_aware_ndcg_arrays
from stylebench.recommend import rank_users, score_mp_users

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)

# few distinct values, so most vectors carry large tie groups
tied_scores = st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, -3.0]), min_size=1, max_size=30)


def rank_one(vec, k, exclude):
    """rank_users over a one-user stream whose mask is ``exclude``."""
    [(_, top, ranked_by)] = rank_users([("u", vec)], k, {"u": np.array(exclude, dtype=np.int64)})
    return top, ranked_by


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
    # one vector object for every user, as MP yields it; some users carry a
    # purchase mask (possibly empty) between unmasked ones
    n = len(scores)
    vec = np.array(scores)
    users = [f"u{j}" for j in range(data.draw(st.integers(1, 6)))]
    masks = {
        u: np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64)
        for u in data.draw(st.sets(st.sampled_from(users)))
    }
    got = list(rank_users(((u, vec) for u in users), k, masks))
    assert [user for user, _, _ in got] == users
    for user, top, ranked_by in got:
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
        (user, tuple(candidates[i] for i in top), tuple(ranked_by[top].tolist()))
        for user, top, ranked_by in rank_users(score_mp_users(pop, users, candidates), k)
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
    value = tie_aware_ndcg_arrays(
        ranked_by, ranked_by[top], positions, np.array(grades)[positions]
    )
    masked = {c: float("-inf") if j in exclude else scores[j] for j, c in enumerate(candidates)}
    oracle = brute_force_tie_aware_ndcg(masked, dict(zip(candidates, grades)), k)
    if oracle is None:
        assert value is None
    else:
        assert abs(value - oracle) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), grades=grade_lists, k=st.integers(1, 10))
def test_random_baseline_matches_oracle_on_equal_scores(n, grades, k):
    rels = {f"i{j}": g for j, g in enumerate(grades[:n]) if g > 0.0}
    oracle = brute_force_tie_aware_ndcg({f"i{j}": 0.0 for j in range(n)}, rels, k)
    value = random_baseline_ndcg(np.array(list(rels.values())), n, k)
    if oracle is None:
        assert value is None
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
    g = np.array(grades, dtype=np.float64)
    want = tie_aware_ndcg_arrays(np.zeros(n), np.zeros(min(k, n)), np.arange(len(g)), g)
    got = random_baseline_ndcg(g, n, k)
    if want is None:
        assert got is None
    else:
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
