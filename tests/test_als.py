"""ALS engine: confidence construction, exact subproblem solves, loss
monotonicity, determinism, ranking quality on synthetic factors."""

import json
import math
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    UnknownUser,
    as_csr,
    confidence,
    csr_cell,
    dense_implicit_als_loss,
    dense_implicit_als_user_solve,
    per_row_als_loss,
    per_row_als_solve,
    predict_scores,
    row_sum_als_loss,
    scores_for_user,
)
from stylebench import als
from stylebench.als import (
    AlsConfig,
    FactorModel,
    _plan_rows,
    _solve_side,
    _training_loss,
    build_confidence,
    fit_als,
    load_model,
    save_model,
)
from stylebench.data import Dataset, InteractionEvent, Kind
from stylebench.errors import DataError, EmptyTraining, SingularSystem, UnknownItem

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
        r = csr_cell(cm.ratings, cm.users.index("u2"), cm.items.index("iA"))
        assert r == pytest.approx(5.0)

    def test_unobserved_cell_confidence_one(self):
        cm = small_confidence()
        assert confidence(cm, "u3", "iA") == pytest.approx(1.0)

    def test_quantity_does_not_scale_rating(self):
        data = Dataset.from_events([ev("u1", "iA", Kind.SALE, 0, quantity=3)])
        cm = build_confidence(data, AlsConfig())
        assert csr_cell(cm.ratings, 0, 0) == pytest.approx(5.0)

    def test_empty_training(self):
        with pytest.raises(EmptyTraining):
            build_confidence(Dataset.from_events([]), AlsConfig())

    def test_deterministic_index_order(self):
        cm = small_confidence()
        assert cm.users == ("u1", "u2", "u3")
        assert cm.items == ("iA", "iB", "iC")


@st.composite
def rated_cells(draw):
    """Distinct cells of a grid, each a view or a sale, in drawn order:
    drawn cells in the first rows and columns, then a row holding one
    cell in the last column, then an empty row; the column before the
    last is empty too."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)), unique=True,
    ))
    cells.append((n_rows, n_cols + 1))
    sold = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return (n_rows + 2, n_cols + 2), cells, sold


def _assert_same_csr(got, want):
    """Equal shapes, and equal CSR arrays in value, order and dtype, with
    scipy's int32 indices read as int64."""
    assert tuple(got.shape) == want.shape
    for part in ("indptr", "indices"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == np.int64 and np.array_equal(g, w), part
    assert got.data.dtype == np.float64 and np.array_equal(got.data, want.data)


@settings(max_examples=200, deadline=None)
@given(problem=rated_cells())
def test_csr_arrays_match_scipy(problem):
    # build_confidence's arrays and their transpose against scipy's, on the
    # rows and columns with a cell; the transpose also on the whole grid
    shape, cells, sold = problem
    events = []
    for hour, ((r, c), s) in enumerate(zip(cells, sold)):
        events.append(ev(f"u{r:02d}", f"i{c:02d}", Kind.VIEW, hour))
        if s:
            events.append(ev(f"u{r:02d}", f"i{c:02d}", Kind.SALE, hour))
    got = build_confidence(Dataset.from_events(events), AlsConfig(sale_weight=3.0)).ratings
    rows, cols = (np.array(a) for a in zip(*cells))
    values = np.where(sold, 3.0, 1.0)
    users, user_rows = np.unique(rows, return_inverse=True)
    items, item_cols = np.unique(cols, return_inverse=True)
    want = sp.csr_matrix((values, (user_rows, item_cols)), shape=(len(users), len(items)))
    _assert_same_csr(got, want)
    _assert_same_csr(got.transpose(), want.T.tocsr())
    grid = sp.csr_matrix((values, (rows, cols)), shape=shape)
    _assert_same_csr(as_csr(grid).transpose(), grid.T.tocsr())


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


def _assert_row_independent_and_close(mat, other, alpha, lam, solved):
    """``solved`` (``_solve_side`` on all of ``mat``) equals ``_solve_side``
    on each row alone, bit for bit, and is within 1e-9 relative (row norm)
    of one f x f LU solve per row."""
    for row in range(mat.shape[0]):
        lo, hi = mat.indptr[row], mat.indptr[row + 1]
        alone = sp.csr_matrix(
            (mat.data[lo:hi], mat.indices[lo:hi], [0, hi - lo]), shape=(1, mat.shape[1])
        )
        want = _solve_side(_plan_rows(alone, alpha), other, lam)[0]
        assert np.array_equal(solved[row].view(np.uint64), want.view(np.uint64)), row
    expected = per_row_als_solve(mat, other, alpha, lam)
    err = np.linalg.norm(solved - expected, axis=1)
    assert np.all(err <= 1e-9 * np.linalg.norm(expected, axis=1))


def _failing_solve_at(monkeypatch, target, mode):
    """Make ``np.linalg.solve`` raise, or return NaN, for a stacked system
    equal to ``target`` up to roundoff."""
    solve = np.linalg.solve

    def failing(a, b):
        stack = np.reshape(a, (-1,) + a.shape[-2:])
        hit = [s.shape == target.shape and np.allclose(s, target, rtol=1e-9, atol=0.0)
               for s in stack]
        x = solve(a, b)
        if any(hit):
            if mode == "raise":
                raise np.linalg.LinAlgError("Singular matrix")
            x = np.array(x)
            x.reshape((-1,) + x.shape[-2:])[hit] = np.nan
        return x

    monkeypatch.setattr(np.linalg, "solve", failing)


def _row_system(other, cols, scaled, lam):
    """The matrix ``_solve_side`` solves for one row: the k x k Woodbury
    system with fewer cells than factors, else the f x f normal equations."""
    m = other[cols]
    base = other.T @ other + lam * np.eye(other.shape[1])
    if len(cols) < other.shape[1]:
        c = m @ np.linalg.inv(base)
        return np.eye(len(cols)) + scaled[:, None] * (c @ m.T)
    return base + (m.T * scaled) @ m


class TestStackedSolves:
    """Row-length groups solved in stacked chunks against each row alone
    and against one LU solve per row."""

    @settings(max_examples=80, deadline=None)
    @given(problem=csr_problems(), chunk=st.sampled_from([2, 3, als._CHUNK_ROWS]))
    def test_bit_identical_to_per_row_loop(self, problem, chunk):
        mat, other, x = problem
        alpha, lam = 40.0, 0.1
        with mock.patch.object(als, "_CHUNK_ROWS", chunk):
            plan = _plan_rows(mat, alpha)
            solved = _solve_side(plan, other, lam)
            loss = _training_loss(x, other, plan, lam)
            _assert_row_independent_and_close(mat, other, alpha, lam, solved)
        assert loss == per_row_als_loss(x, other, mat, alpha, lam)

    @settings(max_examples=80, deadline=None)
    @given(
        problem=csr_problems(),
        scale=st.integers(-30, 30),
        lam=st.sampled_from([1e-3, 0.1, 10.0]),
    )
    def test_loss_close_to_row_sums(self, problem, scale, lam):
        """The one-sum loss against ``row_sum_als_loss``: per-row fsums and
        a regularizer over the squared factor entries.

        Both read the same Gram entries and cell terms, bit for bit. With
        u = 2^-53, n the larger factor row count and A the sum of the
        absolute values of all terms (regularizer lam * |x|^2 + lam * |y|^2),
        they differ by at most:
        - regularizer: a Gram diagonal entry is a float sum of n products,
          within gamma_n ~ n u relative of its exact value (Higham's inner
          product bound; all terms are >= 0), and five roundings around
          the two regularizers (squares, sums, add, the two lam products)
          add at most 5u relative: (n + 5) u A;
        - cells: the old definition rounds each row sum and the sum of rows,
          2u A;
        - totals: the old definition rounds its Gram part and its total,
          the new its one total, 3u A.
        So at most (n + 10) u A; the test allows (n + 10) eps A, eps = 2u.
        """
        mat, other, x = problem
        x, other = x * 2.0**scale, other * 2.0**scale
        alpha = 40.0
        loss = _training_loss(x, other, _plan_rows(mat, alpha), lam)
        old = row_sum_als_loss(x, other, mat, alpha, lam)
        gram = np.abs(x.T @ x * (other.T @ other)).ravel()
        cells = []
        for row in range(mat.shape[0]):
            lo, hi = mat.indptr[row], mat.indptr[row + 1]
            s = other[mat.indices[lo:hi]] @ x[row]
            cells.extend(np.abs((1.0 + alpha * mat.data[lo:hi]) * (1.0 - s) ** 2 - s * s))
        reg = lam * (math.fsum((x**2).ravel()) + math.fsum((other**2).ravel()))
        size = math.fsum([*gram, *cells, reg])
        n = max(len(x), len(other))
        assert abs(loss - old) <= (n + 10) * np.finfo(np.float64).eps * size

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_rows_around_the_factor_count(self, k):
        # f = 4: k = 3 takes the k x k solve, 4 and 5 the f x f one
        rng = np.random.default_rng(k)
        n_rows, n_cols, n_f, alpha, lam = 7, 9, 4, 40.0, 0.1
        cols = np.concatenate([rng.choice(n_cols, size=k, replace=False) for _ in range(n_rows)])
        mat = sp.csr_matrix(
            (rng.choice([1.0, 5.0], size=n_rows * k), cols, np.arange(n_rows + 1) * k),
            shape=(n_rows, n_cols),
        )
        other = rng.uniform(0.0, 0.5, size=(n_cols, n_f))
        with mock.patch.object(als, "_CHUNK_ROWS", 3):
            solved = _solve_side(_plan_rows(mat, alpha), other, lam)
        _assert_row_independent_and_close(mat, other, alpha, lam, solved)

    def test_benchmark_sized_rows(self):
        # 32 factors and about 300 rows each of 1, 3, 31 and 33 cells, so
        # full 256-row chunks: the BLAS kernels run at the sizes a fit uses
        rng = np.random.default_rng(1)
        n_rows, n_cols, n_f, alpha, lam = 1200, 300, 32, 40.0, 0.1
        lengths = rng.choice([1, 3, 31, 33], size=n_rows)
        cols = np.concatenate([rng.choice(n_cols, size=k, replace=False) for k in lengths])
        mat = sp.csr_matrix(
            (rng.choice([1.0, 5.0], size=len(cols)), cols, np.r_[0, np.cumsum(lengths)]),
            shape=(n_rows, n_cols),
        )
        other = rng.uniform(0.0, 0.3, size=(n_cols, n_f))
        solved = _solve_side(_plan_rows(mat, alpha), other, lam)
        _assert_row_independent_and_close(mat, other, alpha, lam, solved)

    def test_singular_system_names_its_row(self, monkeypatch):
        # u2 (row 1) and u3 (row 2) both have one observed item, so they share
        # one stacked solve; only row 2's first-sweep system fails, raising or
        # solving to NaN, with 4 factors (k x k solves) and 1 (f x f solves)
        cm = small_confidence()
        lo, hi = cm.ratings.indptr[2], cm.ratings.indptr[3]
        for n_f in (4, 1):
            cfg = AlsConfig(factors=n_f, iterations=2, seed=3)
            rng = np.random.default_rng(cfg.seed)
            rng.uniform(0.0, 0.01, size=(3, n_f))  # user factors, solved first
            items = rng.uniform(0.0, 0.01, size=(3, n_f))
            target = _row_system(
                items, cm.ratings.indices[lo:hi], cm.alpha * cm.ratings.data[lo:hi],
                cfg.regularization,
            )
            for mode in ("raise", "nan"):
                with monkeypatch.context() as patch:
                    _failing_solve_at(patch, target, mode)
                    with pytest.raises(SingularSystem, match=r"subproblem at row 2 "):
                        fit_als(cm, cfg)

    def test_singular_system_shared_by_two_rows_names_the_lower(self, monkeypatch):
        # rows 1 and 3 have one system (column 0, rating 5); both rows are
        # solved, each in its own chunk of 2, and row 1's chunk comes first,
        # so the lower row is still the one named. 3 factors give k x k
        # solves, 1 factor f x f ones
        mat = sp.csr_matrix(([1.0, 5.0, 1.0, 5.0], [0, 0, 1, 0], [0, 1, 2, 3, 4]), shape=(4, 2))
        alpha, lam = 40.0, 0.1
        monkeypatch.setattr(als, "_CHUNK_ROWS", 2)
        for n_f in (3, 1):
            other = np.random.default_rng(0).normal(size=(2, n_f))
            target = _row_system(other, np.array([0]), np.array([alpha * 5.0]), lam)
            for mode in ("raise", "nan"):
                with monkeypatch.context() as patch:
                    _failing_solve_at(patch, target, mode)
                    with pytest.raises(SingularSystem, match=r"subproblem at row 1 "):
                        _solve_side(_plan_rows(mat, alpha), other, lam)


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
        data = Dataset.from_events(
            [ev("u1", "iA", Kind.VIEW, 0)],
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

    item_pos = {item: j for j, item in enumerate(model.items)}
    percentiles = []
    for u in range(n_users):
        user_id = f"u{u:04d}"
        if user_id not in model.users:
            continue
        # rank among items the model knows, excluding the user's training set
        pool = [
            i for i in range(n_items)
            if i not in trained_items[u] and f"i{i:04d}" in item_pos
        ]
        idx = np.array([item_pos[f"i{i:04d}"] for i in pool], dtype=np.int64)
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

    def test_loads_past_a_byte_order_mark(self, tmp_path):
        model = fit_als(small_confidence(), AlsConfig(factors=5, iterations=4, seed=2))
        path, marked = tmp_path / "model.json", tmp_path / "marked.json"
        save_model(model, path)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, again = load_model(path), load_model(marked)
        for field in ("user_factors", "item_factors"):
            assert np.array_equal(getattr(again, field), getattr(plain, field))
        for field in ("users", "items", "loss_trace", "config"):
            assert getattr(again, field) == getattr(plain, field)

    def test_unreadable_file_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "als_factor_model", "kind": "forest_model"}')
        fault = f"model {re.escape(str(path))}: key 'kind' appears twice"
        with pytest.raises(DataError, match=fault):
            load_model(path)

    # each edit leaves valid JSON that would otherwise fail as a KeyError or
    # a reshape ValueError, or (a repeated id) load a model whose lookups of
    # that id all land on its last row
    @pytest.mark.parametrize("edit, fault", [
        pytest.param(lambda p: p.pop("items"), "has no 'items'", id="missing-key"),
        pytest.param(
            lambda p: p["user_factors"].pop(), "user_factors holds", id="short-factor-list"
        ),
        pytest.param(
            lambda p: p.update(users=[p["users"][0]] * len(p["users"])),
            "lists user 'u1' more than once", id="repeated-user",
        ),
        pytest.param(
            lambda p: p.update(items=p["items"][:-1] + p["items"][:1]),
            "lists item 'iA' more than once", id="repeated-item",
        ),
        pytest.param(
            lambda p: p.update(users="".join(chr(97 + i) for i in range(p["n_users"]))),
            "users is not a list of id strings", id="users-a-string",
        ),
        pytest.param(
            lambda p: p["user_factors"].__setitem__(0, "x"),
            "user_factors is not a list of numbers", id="string-factor",
        ),
        pytest.param(
            lambda p: p["item_factors"].__setitem__(0, "1.5"),
            "item_factors is not a list of numbers", id="numeric-string-factor",
        ),
        pytest.param(
            lambda p: p["loss_trace"].__setitem__(0, "x"),
            "loss_trace is not a list of numbers", id="string-loss",
        ),
        pytest.param(
            lambda p: p["loss_trace"].__setitem__(0, [1.0]),
            "loss_trace is not a list of numbers", id="nested-loss",
        ),
        pytest.param(
            lambda p: p["loss_trace"].reverse(),
            "not a factor model a fit gives.*non-increasing", id="rising-loss",
        ),
        pytest.param(
            lambda p: p["config"].update(factors=3),
            "config has 3 factors, not 5", id="config-factors",
        ),
        pytest.param(
            lambda p: p["config"].update(factor=p["config"].pop("factors")),
            "not a factor model a fit gives.*'factor'", id="misspelt-config-key",
        ),
        pytest.param(
            lambda p: p.update(kind="forest_model"),
            "is not a serialized factor model", id="other-kind",
        ),
    ])
    def test_malformed_file_is_data_error_naming_it(self, tmp_path, edit, fault):
        model = fit_als(small_confidence(), AlsConfig(factors=5, iterations=4, seed=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"model {re.escape(str(path))}.*{fault}"):
            load_model(path)
