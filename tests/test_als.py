"""ALS engine: confidence construction, exact subproblem solves, loss
monotonicity, determinism, ranking quality on synthetic factors."""

import math
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    confidence,
    dense_implicit_als_loss,
    dense_implicit_als_user_solve,
    per_row_als_loss,
    per_row_als_solve,
    predict_scores,
    scores_for_user,
)
from stylebench import als
from stylebench.als import (
    AlsConfig,
    FactorModel,
    _exact_sum,
    _plan_rows,
    _solve_side,
    _training_loss,
    build_confidence,
    fit_als,
    load_model,
    save_model,
)
from stylebench.data import Dataset, InteractionEvent, Kind
from stylebench.errors import EmptyTraining, SingularSystem, UnknownItem, UnknownUser

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


def ev(user, item, kind, hours=0, quantity=1):
    return InteractionEvent(user, item, kind, T0 + timedelta(hours=hours), quantity)


def small_confidence(alpha=40.0):
    data = Dataset.from_events([
        ev("u1", "iA", Kind.VIEW, 0),
        ev("u1", "iB", Kind.SALE, 1),
        ev("u2", "iA", Kind.SALE, 2),
        ev("u2", "iA", Kind.VIEW, 3),
        ev("u3", "iC", Kind.VIEW, 4),
    ])
    return build_confidence(data, AlsConfig(alpha=alpha))


class TestBuildConfidence:
    def test_view_confidence(self):
        cm = small_confidence()
        assert confidence(cm, "u1", "iA") == pytest.approx(41.0)

    def test_sale_confidence(self):
        cm = small_confidence()
        assert confidence(cm, "u1", "iB") == pytest.approx(201.0)

    def test_sale_dominates_view_on_same_pair(self):
        cm = small_confidence()
        r = cm.ratings[cm.user_index["u2"], cm.item_index["iA"]]
        assert r == pytest.approx(5.0)

    def test_unobserved_cell_confidence_one(self):
        cm = small_confidence()
        assert confidence(cm, "u3", "iA") == pytest.approx(1.0)

    def test_quantity_does_not_scale_rating(self):
        data = Dataset.from_events([ev("u1", "iA", Kind.SALE, 0, quantity=3)])
        cm = build_confidence(data, AlsConfig())
        assert cm.ratings[0, 0] == pytest.approx(5.0)

    def test_empty_training(self):
        with pytest.raises(EmptyTraining):
            build_confidence(Dataset.from_events([]), AlsConfig())

    def test_deterministic_index_order(self):
        cm = small_confidence()
        assert cm.users == ("u1", "u2", "u3")
        assert cm.items == ("iA", "iB", "iC")


class TestSolveSide:
    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(0)
        n_items, n_f, alpha, lam = 8, 4, 40.0, 0.1
        item_factors = rng.normal(size=(n_items, n_f))
        rows, cols, vals = [], [], []
        for u in range(5):
            obs = rng.choice(n_items, size=int(rng.integers(1, 5)), replace=False)
            for c in obs:
                rows.append(u)
                cols.append(int(c))
                vals.append(float(rng.choice([1.0, 5.0])))
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(5, n_items))
        solved = _solve_side(_plan_rows(mat, alpha), item_factors, lam)
        for u in range(5):
            lo, hi = mat.indptr[u], mat.indptr[u + 1]
            expected = dense_implicit_als_user_solve(
                item_factors, mat.indices[lo:hi], mat.data[lo:hi], alpha, lam
            )
            np.testing.assert_allclose(solved[u], expected, atol=1e-6)

    def test_loss_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(6, 3))
        observed = {(0, 1): 1.0, (0, 2): 5.0, (1, 0): 1.0, (3, 5): 5.0}
        rows, cols = zip(*observed)
        mat = sp.csr_matrix(
            (list(observed.values()), (rows, cols)), shape=(4, 6)
        )
        fast = _training_loss(x, y, _plan_rows(mat, 40.0), lam=0.1)
        slow = dense_implicit_als_loss(x, y, observed, alpha=40.0, lam=0.1)
        assert fast == pytest.approx(slow, rel=1e-12)


@st.composite
def csr_problems(draw):
    """A CSR matrix with empty rows, one-entry rows and a run of rows of one
    shared length, in drawn order, then copies of drawn rows inserted at
    drawn places: exact repeats, or the same cells in another column order
    or with other ratings. Plus factor matrices for both sides."""
    n_cols = draw(st.integers(1, 10))
    shared = draw(st.integers(1, n_cols))
    lengths = [0, 1] + [shared] * draw(st.integers(4, 9))
    lengths += draw(st.lists(st.integers(0, n_cols), max_size=8))
    lengths = draw(st.permutations(lengths))
    n_f = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [
        (rng.choice(n_cols, size=k, replace=False), rng.choice([1.0, 5.0], size=k))
        for k in lengths
    ]
    for _ in range(draw(st.integers(0, 8))):
        cols, data = rows[draw(st.integers(0, len(rows) - 1))]
        change = draw(st.sampled_from(["none", "order", "ratings"]))
        if change == "order":
            perm = rng.permutation(len(cols))
            cols, data = cols[perm], data[perm]
        elif change == "ratings":
            data = rng.choice([1.0, 5.0], size=len(data))
        rows.insert(draw(st.integers(0, len(rows))), (cols, data))
    indptr = np.cumsum([0] + [len(cols) for cols, _ in rows])
    mat = sp.csr_matrix(
        (
            np.concatenate([data for _, data in rows]),
            np.concatenate([cols for cols, _ in rows]).astype(np.int32),
            indptr,
        ),
        shape=(len(rows), n_cols),
    )
    return mat, rng.normal(size=(n_cols, n_f)), rng.normal(size=(len(rows), n_f))


class TestStackedSolves:
    """Row-length groups solved in stacked chunks against the per-row loop."""

    @settings(max_examples=80, deadline=None)
    @given(problem=csr_problems(), chunk=st.integers(2, 3))
    def test_bit_identical_to_per_row_loop(self, problem, chunk):
        mat, other, x = problem
        alpha, lam = 40.0, 0.1
        with mock.patch.object(als, "_CHUNK_ROWS", chunk):
            plan = _plan_rows(mat, alpha)
            solved = _solve_side(plan, other, lam)
            loss = _training_loss(x, other, plan, lam)
        expected = per_row_als_solve(mat, other, alpha, lam)
        assert np.array_equal(solved.view(np.uint64), expected.view(np.uint64))
        assert loss == per_row_als_loss(x, other, mat, alpha, lam)

    def test_singular_system_names_its_row(self, monkeypatch):
        # u2 (row 1) and u3 (row 2) both have one observed item, so they share
        # one stacked solve; only row 2's first-sweep system is made singular
        cm = small_confidence()
        cfg = AlsConfig(factors=4, iterations=2, seed=3)
        rng = np.random.default_rng(cfg.seed)
        rng.uniform(0.0, 0.01, size=(3, cfg.factors))  # user factors, solved first
        items = rng.uniform(0.0, 0.01, size=(3, cfg.factors))
        lo, hi = cm.ratings.indptr[2], cm.ratings.indptr[3]
        m = items[cm.ratings.indices[lo:hi]]
        scaled = cm.alpha * cm.ratings.data[lo:hi]
        target = items.T @ items + cfg.regularization * np.eye(cfg.factors) + (m.T * scaled) @ m
        solve = np.linalg.solve

        def singular_at_target(a, b):
            stack = np.reshape(a, (-1, cfg.factors, cfg.factors))
            if any(np.allclose(s, target, rtol=1e-9, atol=0.0) for s in stack):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_at_target)
        with pytest.raises(SingularSystem, match=r"singular subproblem at row 2 "):
            fit_als(cm, cfg)

    def test_singular_system_shared_by_two_rows_names_the_lower(self, monkeypatch):
        # rows 1 and 3 have one system (column 0, rating 5), solved once at
        # row 1; solved row by row in chunks of 2, they would fall apart
        mat = sp.csr_matrix(([1.0, 5.0, 1.0, 5.0], [0, 0, 1, 0], [0, 1, 2, 3, 4]), shape=(4, 2))
        other = np.random.default_rng(0).normal(size=(2, 3))
        alpha, lam = 40.0, 0.1
        target = other.T @ other + lam * np.eye(3) + alpha * 5.0 * np.outer(other[0], other[0])
        solve = np.linalg.solve

        def singular_at_target(a, b):
            stack = np.reshape(a, (-1, 3, 3))
            if any(np.allclose(s, target, rtol=1e-9, atol=0.0) for s in stack):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_at_target)
        monkeypatch.setattr(als, "_CHUNK_ROWS", 2)
        with pytest.raises(SingularSystem, match=r"singular subproblem at row 1 "):
            _solve_side(_plan_rows(mat, alpha), other, lam)


def _fraction_sum(values):
    """The exact sum of float values, correctly rounded to a float."""
    return float(sum(map(Fraction, values), Fraction(0)))


class TestExactSum:
    """``_exact_sum`` against ``math.fsum`` and exact rational arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_equals_fsum(self, values):
        array = np.array(values, dtype=np.float64)
        try:
            want = math.fsum(values)
        except OverflowError:  # fsum also fails on an intermediate overflow
            try:
                want = _fraction_sum(values)
            except OverflowError:
                with pytest.raises(OverflowError):
                    _exact_sum(array)
                return
        assert np.float64(_exact_sum(array)).view(np.uint64) == np.float64(want).view(np.uint64)

    @pytest.mark.parametrize("values", [
        [],
        [0.0, -0.0, 0.0],
        [5e-324] * 1000,  # subnormals summing into the normal range
        [2.2250738585072014e-308, -5e-324, 1e-320],
        [1e-310, -1e-310, 3e-321, 7e-323],
        [1.7976931348623157e308, -1.7976931348623157e308, 1e292, 1.0],
        [1e300] * 100 + [1e-300] * 100 + [-1e300] * 99,
        [0.1] * 10_000,
        [3.0, 2.0**53, 1.0, -(2.0**53)],  # a tie rounded to even
    ])
    def test_edge_cases(self, values):
        array = np.array(values, dtype=np.float64)
        want = _fraction_sum(values)
        assert np.float64(_exact_sum(array)).view(np.uint64) == np.float64(want).view(np.uint64)
        if all(v >= 0 for v in values):  # no intermediate overflow
            assert _exact_sum(array) == math.fsum(values)

    def test_squares_of_factors(self):
        # what the regularizer sums: tens of thousands of squares over a
        # wide range of exponents
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2000, 32)) * np.exp(rng.normal(scale=20.0, size=(2000, 1)))
        values = x**2
        assert _exact_sum(values) == math.fsum(values.ravel().tolist())

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            _exact_sum(np.full(2, 1.7976931348623157e308))

    @pytest.mark.parametrize("values", [[np.inf, 1.0], [np.nan, 1.0], [-np.inf, 2.0]])
    def test_non_finite_as_fsum(self, values):
        got, want = _exact_sum(np.array(values)), math.fsum(values)
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestFitAls:
    def test_loss_non_increasing(self):
        cm = small_confidence()
        model = fit_als(cm, AlsConfig(factors=4, iterations=10, seed=3))
        trace = np.array(model.loss_trace)
        assert len(trace) == 10
        assert np.all(np.diff(trace) <= 1e-8)

    @pytest.mark.parametrize(
        "trace, accepted",
        [
            ((7e5, 7e5 + 1e-6), True),  # roundoff at 10x scale
            ((5e4, 5e4 - 1.0, 5e4 - 1.0 + 1e-7), True),
            ((7e5, 7e5 + 1.0), False),
            ((1.0, 1.0 + 1e-6), False),
        ],
    )
    def test_loss_trace_check_is_relative(self, trace, accepted):
        def build():
            return FactorModel(
                user_factors=np.zeros((1, 1)),
                item_factors=np.zeros((1, 1)),
                users=("u",),
                items=("i",),
                loss_trace=trace,
                config=AlsConfig(factors=1),
            )

        if accepted:
            assert build().loss_trace == trace
        else:
            with pytest.raises(ValueError, match="non-increasing"):
                build()

    def test_bit_identical_across_runs(self):
        cm = small_confidence()
        cfg = AlsConfig(factors=6, iterations=5, seed=11)
        a = fit_als(cm, cfg)
        b = fit_als(cm, cfg)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)
        assert a.loss_trace == b.loss_trace

    def test_observed_cell_beats_cold_item(self):
        # one user, one view; a second catalog item with no events stays at 0
        data = Dataset(
            events=(ev("u1", "iA", Kind.VIEW, 0),),
            users=frozenset({"u1"}),
            items=frozenset({"iA", "iCold"}),
        )
        cm = build_confidence(data, AlsConfig())
        model = fit_als(cm, AlsConfig(factors=2, iterations=5, seed=0))
        warm, cold = predict_scores(model, "u1", ["iA", "iCold"])
        assert warm > cold

    def test_seeded_rank2_recovery(self):
        # spec-sized oracle: generated rank-2 preferences, held-out positives
        # should rank far above random (0.50)
        rank = _held_out_percentile_rank(
            n_users=500, n_items=100, latent=2, factors=8, seed=5
        )
        assert rank < 0.30


def _held_out_percentile_rank(n_users, n_items, latent, factors, seed,
                              iterations=15):
    """Mean percentile rank of held-out positives among each user's
    non-training items; the true-factor generator is the oracle."""
    rng = np.random.default_rng(seed)
    true_users = rng.normal(size=(n_users, latent))
    true_items = rng.normal(size=(n_items, latent))
    affinity = true_users @ true_items.T
    events = []
    held_out: list[set[int]] = []
    trained_items: list[set[int]] = []
    for u in range(n_users):
        top = [int(i) for i in np.argsort(-affinity[u])[:12]]
        held = set(
            int(i) for i in rng.choice(top, size=round(0.2 * len(top)), replace=False)
        )
        held_out.append(held)
        kept = set(top) - held
        trained_items.append(kept)
        for i in sorted(kept):
            events.append(ev(f"u{u:04d}", f"i{i:04d}", Kind.VIEW, u % 500))
    data = Dataset.from_events(events)
    cfg = AlsConfig(factors=factors, iterations=iterations, seed=seed)
    model = fit_als(build_confidence(data, cfg), cfg)

    percentiles = []
    for u in range(n_users):
        user_id = f"u{u:04d}"
        if user_id not in model.user_index:
            continue
        # rank among items the model knows, excluding the user's training set
        pool = [
            i for i in range(n_items)
            if i not in trained_items[u] and f"i{i:04d}" in model.item_index
        ]
        idx = np.array([model.item_index[f"i{i:04d}"] for i in pool], dtype=np.int64)
        scores = scores_for_user(model, user_id, idx)
        order = np.argsort(-scores, kind="stable")
        rank_of = {pool[j]: r for r, j in enumerate(order)}
        for i in held_out[u]:
            if i in rank_of:
                percentiles.append(rank_of[i] / (len(pool) - 1))
    return float(np.mean(percentiles))


class TestPredict:
    def test_scores_in_input_order(self):
        cm = small_confidence()
        model = fit_als(cm, AlsConfig(factors=3, iterations=3, seed=1))
        scores = predict_scores(model, "u1", ["iC", "iA", "iB"])
        assert len(scores) == 3
        assert all(np.isfinite(s) for s in scores)
        flipped = predict_scores(model, "u1", ["iB", "iA", "iC"])
        assert flipped == [scores[2], scores[1], scores[0]]

    def test_unknown_user(self):
        cm = small_confidence()
        model = fit_als(cm, AlsConfig(factors=3, iterations=2, seed=1))
        with pytest.raises(UnknownUser):
            predict_scores(model, "stranger", ["iA"])

    def test_unknown_item(self):
        cm = small_confidence()
        model = fit_als(cm, AlsConfig(factors=3, iterations=2, seed=1))
        with pytest.raises(UnknownItem):
            predict_scores(model, "u1", ["iZ"])


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        cm = small_confidence()
        model = fit_als(cm, AlsConfig(factors=5, iterations=4, seed=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(again.user_factors, model.user_factors)
        assert np.array_equal(again.item_factors, model.item_factors)
        assert again.users == model.users
        assert again.items == model.items
        assert again.loss_trace == model.loss_trace
        assert again.config == model.config
