"""Metric suite: DCG, tie-aware NDCG, the random baseline, distinctness,
relative popularity, and the bootstrap."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_tie_aware_ndcg,
    loop_avg_distinct_sampled,
    loop_pair_from_flat,
    loop_sample_pair_indices,
    one_draw_bootstrap_ci,
    plain_dcg,
    ragged,
    relative_popularity_user,
    row_slices,
)
from stylebench.data import Dataset, InteractionEvent, Kind, PopularityTable
from stylebench.errors import AllUndefined, TooFewUsers, ZeroPopularity
from stylebench.metrics import (
    _pair_from_flat,
    _summarize,
    avg_distinct_exact,
    avg_distinct_sampled,
    bootstrap_ci,
    build_relevance,
    dcg_at_k,
    micro_average_ndcg,
    percent_over_random,
    random_baseline_ndcg,
    relative_popularity,
    sample_pair_indices,
    tie_aware_ndcg_at_k,
)
from stylebench.recommend import RankedList

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)

# brute-force permutation average for rel={1,0,0} over one 3-way tie group
ALL_TIED_EXPECTED = (1.0 + 1.0 / math.log2(3) + 0.5) / 3.0


def ranked(user, items, algorithm="CB"):
    return RankedList(
        user_id=user,
        items=tuple(items),
        scores=tuple(float(n) for n in range(len(items), 0, -1)),
        algorithm=algorithm,
    )


class TestDcg:
    def test_single_hit_at_top(self):
        assert dcg_at_k([1, 0, 0], 3) == pytest.approx(1.0)

    def test_all_zero(self):
        assert dcg_at_k([0, 0, 0], 3) == 0.0

    def test_hand_evaluation(self):
        assert dcg_at_k([2, 0, 1], 3) == pytest.approx(2.5)

    def test_truncates_at_k(self):
        assert dcg_at_k([1, 1, 1, 1], 2) == pytest.approx(1.0 + 1.0 / math.log2(3))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            dcg_at_k([1.0], 0)
        with pytest.raises(ValueError):
            tie_aware_ndcg_at_k({"a": 1.0}, {"a": 1.0}, 0)


class TestTieAwareNdcg:
    def test_perfect_distinct_ranking(self):
        scores = {"a": 3.0, "b": 2.0, "c": 1.0}
        rels = {"a": 2.0, "b": 1.0}
        assert tie_aware_ndcg_at_k(scores, rels, 3) == pytest.approx(1.0)

    def test_all_tied_matches_brute_force(self):
        scores = {"a": 1.0, "b": 1.0, "c": 1.0}
        rels = {"a": 1.0}
        value = tie_aware_ndcg_at_k(scores, rels, 3)
        assert value == pytest.approx(ALL_TIED_EXPECTED, abs=1e-12)
        oracle = brute_force_tie_aware_ndcg(scores, rels, 3)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_input_order_of_ties_irrelevant(self):
        rels = {"a": 1.0, "c": 2.0}
        forward = tie_aware_ndcg_at_k({"a": 1.0, "b": 1.0, "c": 0.5}, rels, 3)
        backward = tie_aware_ndcg_at_k({"c": 0.5, "b": 1.0, "a": 1.0}, rels, 3)
        assert forward == backward

    def test_all_zero_relevance_undefined(self):
        assert tie_aware_ndcg_at_k({"a": 1.0, "b": 2.0}, {}, 2) is None

    def test_matches_plain_ndcg_when_distinct(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            scores = {f"i{j}": float(s) for j, s in enumerate(rng.permutation(n))}
            rels = {f"i{j}": float(rng.integers(0, 3)) for j in range(n)}
            if all(v == 0 for v in rels.values()):
                rels["i0"] = 1.0
            ranking = sorted(scores, key=lambda i: -scores[i])
            ideal = plain_dcg(sorted(rels.values(), reverse=True), 5)
            plain = plain_dcg([rels[i] for i in ranking], 5) / ideal
            assert tie_aware_ndcg_at_k(scores, rels, 5) == pytest.approx(plain, abs=1e-12)

    def test_matches_brute_force_with_random_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            scores = {f"i{j}": float(rng.integers(0, 3)) for j in range(n)}
            rels = {f"i{j}": float(rng.integers(0, 3)) for j in range(n)}
            k = int(rng.integers(1, n + 1))
            oracle = brute_force_tie_aware_ndcg(scores, rels, k)
            value = tie_aware_ndcg_at_k(scores, rels, k)
            if oracle is None:
                assert value is None
            else:
                assert value == pytest.approx(oracle, abs=1e-9)

    @given(st.integers(2, 7), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounded_when_defined(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = {f"i{j}": float(rng.integers(0, 4)) for j in range(n)}
        rels = {f"i{j}": float(rng.integers(0, 4)) for j in range(n)}
        value = tie_aware_ndcg_at_k(scores, rels, 10)
        if value is not None:
            assert 0.0 <= value <= 1.0 + 1e-12


class TestRandomBaseline:
    def test_matches_all_tied(self):
        [value] = random_baseline_ndcg(*ragged([np.array([1.0])]), 3, 3)
        assert value == pytest.approx(ALL_TIED_EXPECTED, abs=1e-12)

    def test_equals_single_tie_group(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            rels = {f"i{j}": float(rng.integers(0, 3)) for j in range(n)}
            k = int(rng.integers(1, 11))
            tied = tie_aware_ndcg_at_k({f"i{j}": 0.0 for j in range(n)}, rels, k)
            [direct] = random_baseline_ndcg(*ragged([np.array(list(rels.values()))]), n, k)
            if tied is None:
                assert np.isnan(direct)
            else:
                assert direct == pytest.approx(tied, abs=1e-12)

    def test_everything_relevant_is_ideal(self):
        [value] = random_baseline_ndcg(*ragged([np.array([1.0, 1.0])]), 2, 2)
        assert value == pytest.approx(1.0)

    def test_zero_relevance_undefined(self):
        assert np.isnan(random_baseline_ndcg(*ragged([np.array([])]), 5, 3)).all()


class TestMicroAverage:
    def test_plain_mean(self):
        out = micro_average_ndcg([0.2, 0.4])
        assert out.value == pytest.approx(0.3)
        assert out.n_users == 2 and out.n_excluded == 0

    def test_undefined_excluded(self):
        for values in ([0.5, None], np.array([0.5, np.nan])):
            out = micro_average_ndcg(values)
            assert out.value == pytest.approx(0.5)
            assert out.n_users == 1 and out.n_excluded == 1

    def test_all_undefined_raises(self):
        with pytest.raises(AllUndefined):
            micro_average_ndcg([None, None])

    def test_percent_over_random(self):
        assert percent_over_random(0.077, 0.0175) == pytest.approx(340.0)


def symmetric_distinct(a, b, k):
    """The distinctness of one pair: the exact mean over that pair alone."""
    return avg_distinct_exact([a, b], k)


def matrix(lists):
    """The RankedLists' items as the harness's item matrix."""
    return np.array([lst.items for lst in lists])


class TestSymmetricDistinct:
    def test_identical_lists(self):
        a = ranked("u1", [f"i{n}" for n in range(10)])
        assert symmetric_distinct(a, a, 10) == 0

    def test_disjoint_lists(self):
        a = ranked("u1", [f"a{n}" for n in range(10)])
        b = ranked("u2", [f"b{n}" for n in range(10)])
        assert symmetric_distinct(a, b, 10) == 20

    def test_partial_overlap(self):
        a = ranked("u1", [f"s{n}" for n in range(6)] + [f"a{n}" for n in range(4)])
        b = ranked("u2", [f"s{n}" for n in range(6)] + [f"b{n}" for n in range(4)])
        assert symmetric_distinct(a, b, 10) == 8

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_parity(self, seed):
        rng = np.random.default_rng(seed)
        pool = [f"i{n}" for n in range(15)]
        a = ranked("u1", rng.choice(pool, size=8, replace=False))
        b = ranked("u2", rng.choice(pool, size=8, replace=False))
        d = symmetric_distinct(a, b, 8)
        assert d == symmetric_distinct(b, a, 8)
        assert d % 2 == 0
        assert 0 <= d <= 16
        assert (d == 0) == (set(a.items) == set(b.items))


def pairs_of(i, j):
    return list(zip(i.tolist(), j.tolist()))


class TestPairSampling:
    def test_flat_index_bijection(self):
        for n in (2, 3, 5, 11):
            total = n * (n - 1) // 2
            pairs = pairs_of(*_pair_from_flat(np.arange(total), n))
            assert all(0 <= i < j < n for i, j in pairs)
            assert len(set(pairs)) == total
            assert pairs == [loop_pair_from_flat(t, n) for t in range(total)]

    def test_flat_index_fixups_at_row_boundaries(self):
        # at this n, sqrt rounds the row of a row's last flat index one too
        # high; the fix-ups must land every flat index on the loop's pair
        n = 300_000_001
        total = n * (n - 1) // 2
        rows = np.array([0, 1, 2, 3, n // 2, n - 3, n - 2], dtype=np.int64)
        starts = rows * (2 * n - rows - 1) // 2
        flats = np.unique(np.clip(np.concatenate([starts - 1, starts, starts + 1]), 0, total - 1))
        got = pairs_of(*_pair_from_flat(flats, n))
        assert got == [loop_pair_from_flat(int(t), n) for t in flats]

    def test_distinct_and_uniform_support(self):
        pairs = pairs_of(*sample_pair_indices(30, 30, seed=4))
        assert len(pairs) == len(set(pairs)) == 30
        assert all(0 <= i < j < 30 for i, j in pairs)

    def test_draws_everything_when_clamped(self):
        assert pairs_of(*sample_pair_indices(3, 3, seed=0)) == [(0, 1), (0, 2), (1, 2)]

    @given(n_users=st.integers(0, 12), data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_draw_loop(self, n_users, data, seed):
        # same pairs and same generator state afterwards, on tiny totals with
        # many collisions and on n_pairs == total, where nothing is drawn
        total = n_users * (n_users - 1) // 2
        n_pairs = data.draw(st.integers(0, total), label="n_pairs")
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        i, j = sample_pair_indices(n_users, n_pairs, rng)
        assert i.dtype == j.dtype == np.int64
        assert pairs_of(i, j) == loop_sample_pair_indices(n_users, n_pairs, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ValueError):
            sample_pair_indices(3, 4, seed=0)


class TestAvgDistinct:
    def test_shared_list_gives_zero(self):
        lists = [ranked(f"u{n}", ["a", "b", "c"], "MP") for n in range(12)]
        out = avg_distinct_sampled(lists, 3, seed=9)
        assert out.point == 0.0
        assert out.dispersion == 0.0
        assert (out.ci_low, out.ci_high) == (0.0, 0.0)

    def test_too_few_users(self):
        with pytest.raises(TooFewUsers):
            avg_distinct_sampled([ranked("u1", ["a"])], 1, seed=0)

    def test_two_users_single_pair(self):
        lists = [ranked("u1", ["a", "b"]), ranked("u2", ["a", "c"])]
        out = avg_distinct_sampled(lists, 2, seed=0)
        assert out.point == pytest.approx(2.0)
        assert out.n_units == 1

    @settings(max_examples=100, deadline=None)
    @given(
        n_users=st.integers(2, 40),
        pool=st.integers(1, 25),
        width=st.integers(1, 12),
        k=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_kernel_equals_the_pair_loop(self, n_users, pool, width, k, seed):
        rng = np.random.default_rng(seed)
        items = [f"i{n:02d}" for n in range(pool)]
        lists = [
            ranked(f"u{n}", rng.choice(items, size=min(width, pool), replace=False))
            for n in range(n_users)
        ]
        want = loop_avg_distinct_sampled(lists, k, seed=seed, resamples=50)
        for given_lists in (lists, matrix(lists)):
            got = avg_distinct_sampled(given_lists, k, seed=seed, resamples=50)
            assert got.n_units == want.n_units
            for field in ("point", "dispersion", "ci_low", "ci_high"):
                assert np.float64(getattr(got, field)).view(np.uint64) == (
                    np.float64(getattr(want, field)).view(np.uint64)
                )

    def test_estimator_tracks_exact_enumeration(self):
        rng = np.random.default_rng(42)
        pool = [f"i{n:03d}" for n in range(50)]
        lists = [
            ranked(f"u{n:03d}", rng.choice(pool, size=10, replace=False))
            for n in range(200)
        ]
        exact = avg_distinct_exact(lists, 10)
        estimates = [
            avg_distinct_sampled(lists, 10, seed=s).point for s in range(50)
        ]
        grand_mean = float(np.mean(estimates))
        assert abs(grand_mean - exact) / exact < 0.02
        # unbiasedness: the grand mean sits inside the exact value's 95%
        # normal band for the mean of 50 reseeded estimates
        se = float(np.std(estimates, ddof=1)) / np.sqrt(len(estimates))
        assert abs(grand_mean - exact) <= 1.96 * se


def relative_popularity_of(lst, pop, k):
    """One list's relative popularity, read off the aggregate over it alone."""
    return relative_popularity([lst], pop, k, seed=0).point


class TestRelativePopularity:
    def pop(self, quantities):
        ranking = tuple(sorted(quantities, key=lambda i: (-quantities[i], i)))
        return PopularityTable(quantities=quantities, ranking=ranking)

    def test_top_k_recommendation_is_one(self):
        pop = self.pop({"a": 10, "b": 8, "c": 1})
        assert relative_popularity_of(ranked("u", ["a", "b"]), pop, 2) == 1.0

    def test_zero_sale_items(self):
        pop = self.pop({"a": 10, "b": 8, "c": 0, "d": 0})
        assert relative_popularity_of(ranked("u", ["c", "d"]), pop, 2) == 0.0

    def test_hand_evaluation(self):
        pop = self.pop({"a": 10, "b": 8, "c": 5, "d": 3})
        assert relative_popularity_of(ranked("u", ["c", "d"]), pop, 2) == pytest.approx(8 / 18)

    def test_zero_popularity_raises(self):
        pop = self.pop({"a": 0, "b": 0})
        with pytest.raises(ZeroPopularity):
            relative_popularity_of(ranked("u", ["a"]), pop, 2)

    def test_aggregate_matches_external_mean(self):
        rng = np.random.default_rng(8)
        quantities = {f"i{n:02d}": int(rng.integers(0, 30)) for n in range(40)}
        pop = self.pop(quantities)
        pool = sorted(quantities)
        lists = [
            ranked(f"u{n}", rng.choice(pool, size=10, replace=False))
            for n in range(25)
        ]
        per_user = [relative_popularity_user(lst, pop, 10) for lst in lists]
        out = relative_popularity(lists, pop, 10, seed=3)
        assert out.point == pytest.approx(np.mean(per_user), abs=1e-12)
        assert out.dispersion == pytest.approx(np.std(per_user, ddof=1), abs=1e-12)
        assert all(0.0 <= v <= 1.0 for v in per_user)

    def test_mp_style_lists_exactly_one(self):
        pop = self.pop({"a": 5, "b": 3, "c": 9})
        top2 = pop.ranking[:2]
        lists = [ranked(f"u{n}", top2, "MP") for n in range(6)]
        out = relative_popularity(lists, pop, 2, seed=0)
        assert out.point == 1.0 and out.dispersion == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        quantities=st.lists(st.integers(0, 50), min_size=1, max_size=30),
        n_users=st.integers(1, 20),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_equal_the_per_user_oracle(self, quantities, n_users, k, seed):
        pop = self.pop({f"i{n:02d}": q for n, q in enumerate(quantities)})
        if sum(pop.top_quantities(k)) == 0:
            return
        rng = np.random.default_rng(seed)
        m = min(k, len(quantities))
        lists = [
            ranked(f"u{n}", rng.choice(sorted(pop.quantities), size=m, replace=False))
            for n in range(n_users)
        ]
        per_user = np.array([relative_popularity_user(lst, pop, k) for lst in lists])
        want = _summarize(per_user, seed=np.random.default_rng(seed), resamples=50)
        assert relative_popularity(lists, pop, k, seed=seed, resamples=50) == want
        assert relative_popularity(matrix(lists), pop, k, seed=seed, resamples=50) == want


class TestBootstrap:
    def test_constant_values(self):
        assert bootstrap_ci([0.5] * 8, seed=1) == (0.5, 0.5)

    def test_default_resamples_is_1000(self):
        import inspect

        assert inspect.signature(bootstrap_ci).parameters["resamples"].default == 1000

    def test_deterministic_given_seed(self):
        values = list(np.random.default_rng(0).normal(size=40))
        assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)
        assert bootstrap_ci(values, seed=7) != bootstrap_ci(values, seed=8)

    def test_bounds_inside_value_range(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-3, 9, size=25)
        low, high = bootstrap_ci(values, seed=5)
        assert values.min() <= low <= high <= values.max()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    @pytest.mark.parametrize("resamples", [1, 63, 64, 65, 999, 1000])
    def test_chunked_draws_equal_one_draw(self, n, resamples):
        values = np.random.default_rng(n).normal(size=n)
        for seed in (0, 1):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = bootstrap_ci(values, resamples=resamples, seed=got_rng)
            want = one_draw_bootstrap_ci(values, resamples, 0.95, want_rng)
            assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
            # the generator is left where the one draw leaves it
            assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)

    def test_gaussian_coverage(self):
        rng = np.random.default_rng(123)
        covered = 0
        for trial in range(100):
            sample = rng.normal(loc=0.3, scale=1.0, size=10_000)
            low, high = bootstrap_ci(sample, resamples=1000, seed=trial)
            covered += low <= 0.3 <= high
        assert covered >= 90


def graded_ids(test, candidates, grading="graded"):
    """build_relevance's rows by user, positions mapped back to item ids."""
    indptr, positions, grades = build_relevance(test, candidates, grading)
    return {
        user: {candidates[p]: g for p, g in zip(pos.tolist(), g.tolist())}
        for user, pos, g in zip(
            test.user_ids, row_slices(indptr, positions), row_slices(indptr, grades)
        )
    }


class TestBuildRelevance:
    def events(self):
        return [
            InteractionEvent("u1", "A", Kind.SALE, T0, 1),
            InteractionEvent("u1", "B", Kind.VIEW, T0 + timedelta(hours=1), 1),
            InteractionEvent("u1", "Z", Kind.SALE, T0 + timedelta(hours=2), 1),
            InteractionEvent("u2", "A", Kind.VIEW, T0 + timedelta(hours=3), 1),
        ]

    def test_graded_default(self):
        rel = graded_ids(Dataset.from_events(self.events()), ["A", "B"], "graded")
        assert rel["u1"] == {"A": 2.0, "B": 1.0}
        assert rel["u2"] == {"A": 1.0}

    def test_candidate_restriction(self):
        rel = graded_ids(Dataset.from_events(self.events()), ["A", "B"])
        assert "Z" not in rel["u1"]

    def test_binary_mode(self):
        rel = graded_ids(Dataset.from_events(self.events()), ["A", "B"], "binary")
        assert rel["u1"] == {"A": 1.0, "B": 1.0}

    def test_sales_only_mode(self):
        rel = graded_ids(Dataset.from_events(self.events()), ["A", "B"], "sales_only")
        assert rel["u1"] == {"A": 1.0}
        assert rel["u2"] == {}

    def test_sale_beats_view_on_same_item(self):
        events = [
            InteractionEvent("u1", "A", Kind.VIEW, T0, 1),
            InteractionEvent("u1", "A", Kind.SALE, T0 + timedelta(hours=1), 1),
        ]
        rel = graded_ids(Dataset.from_events(events), ["A"])
        assert rel["u1"] == {"A": 2.0}

    def test_positions_index_the_given_candidates(self):
        events = self.events() + [InteractionEvent("u3", "Z", Kind.VIEW, T0, 1)]
        indptr, positions, grades = build_relevance(Dataset.from_events(events), ("B", "A"))
        # rows u1, u2, u3
        assert indptr.tolist() == [0, 2, 3, 3]
        assert positions.tolist() == [1, 0, 1] and grades.tolist() == [2.0, 1.0, 1.0]
        assert positions.dtype == np.int64 and grades.dtype == np.float64
