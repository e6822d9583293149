"""Implicit-feedback matrix factorization by alternating least squares.

Observed user-item pairs carry an implicit rating r (a sale weight or a
view indicator) and confidence c = 1 + alpha * r; unobserved cells have
preference 0 and confidence 1. Each half-sweep solves its regularized
weighted least-squares subproblem exactly, so the training loss

    sum_{u,i} c_ui (p_ui - x_u . y_i)^2
        + lambda * (sum_u |x_u|^2 + sum_i |y_i|^2)

is non-increasing sweep over sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .errors import EmptyTraining, SingularSystem


@dataclass(frozen=True)
class AlsConfig:
    """ALS hyperparameters. The defaults follow implicit-ALS convention."""

    factors: int = 32
    regularization: float = 0.1
    alpha: float = 40.0
    sale_weight: float = 5.0
    iterations: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.factors < 1:
            raise ValueError("factors must be positive")
        if self.regularization <= 0:
            raise ValueError("regularization must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.sale_weight <= 0:
            raise ValueError("sale_weight must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


@dataclass(frozen=True, eq=False)
class ConfidenceMatrix:
    """Sparse user x item implicit ratings with row/column id maps.

    ``ratings`` stores r_ui for observed cells only; confidence is
    derived as 1 + alpha * r_ui.
    """

    ratings: sp.csr_matrix
    users: tuple[str, ...]
    items: tuple[str, ...]
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "user_index", {u: i for i, u in enumerate(self.users)})
        object.__setattr__(self, "item_index", {m: i for i, m in enumerate(self.items)})

    @property
    def shape(self) -> tuple[int, int]:
        return self.ratings.shape


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Trained latent factors plus the per-sweep loss trace."""

    user_factors: np.ndarray
    item_factors: np.ndarray
    users: tuple[str, ...]
    items: tuple[str, ...]
    loss_trace: tuple[float, ...]
    config: AlsConfig

    def __post_init__(self):
        if not np.all(np.isfinite(self.user_factors)) or not np.all(
            np.isfinite(self.item_factors)
        ):
            raise ValueError("factor matrices contain non-finite entries")
        if len(self.user_factors) != len(self.users):
            raise ValueError("user factor rows do not match user ids")
        if len(self.item_factors) != len(self.items):
            raise ValueError("item factor rows do not match item ids")
        # roundoff in a loss of magnitude L is O(L * eps), so the allowed rise
        # scales with the loss
        trace = np.asarray(self.loss_trace, dtype=np.float64)
        if np.any(np.diff(trace) > 1e-8 + 1e-9 * np.abs(trace[:-1])):
            raise ValueError("loss trace must be non-increasing")
        object.__setattr__(self, "user_index", {u: i for i, u in enumerate(self.users)})
        object.__setattr__(self, "item_index", {m: i for i, m in enumerate(self.items)})


def build_confidence(train: Dataset, cfg: AlsConfig) -> ConfidenceMatrix:
    """Collapse training events into per-pair implicit ratings.

    A pair with at least one sale gets r = sale_weight regardless of
    views or units; a pair with views only gets r = 1.
    """
    if not train.events:
        raise EmptyTraining("cannot build a confidence matrix from zero events")
    rows, cols, sold = train.pairs()
    ratings = sp.csr_matrix(
        (np.where(sold, cfg.sale_weight, 1.0), (rows, cols)),
        shape=(len(train.user_ids), len(train.item_ids)),
    )
    return ConfidenceMatrix(ratings, train.user_ids, train.item_ids, cfg.alpha)


_CHUNK_ROWS = 256  # rows per stacked solve; bounds its (rows, f, f) stacks


class _RowGroup(NamedTuple):
    """The rows of one side that have k observed cells.

    The first ``n_systems`` rows are the lowest row of each distinct
    (columns, scaled ratings) system, ascending; the rest repeat one of
    those systems exactly.
    """

    rows: np.ndarray  # (n,)
    cols: np.ndarray  # (n, k) column indices
    scaled: np.ndarray  # (n, k) alpha * rating
    n_systems: int


class _RowPlan(NamedTuple):
    """One side's rows grouped by length, built once per fit. Each row in
    ``copy_to`` has the same system as its ``copy_from`` row."""

    n_rows: int
    groups: tuple[_RowGroup, ...]
    copy_to: np.ndarray
    copy_from: np.ndarray


def _plan_rows(mat: sp.csr_matrix, alpha: float) -> _RowPlan:
    """Group ``mat``'s non-empty rows by length and find repeated systems.

    Within a length group, one stable ``np.lexsort`` over each row's
    (columns, scaled rating bits) key puts equal systems next to each other,
    lowest row first.
    """
    lengths = np.diff(mat.indptr)
    groups = []
    copy_to, copy_from = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for k in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == k)
        pos = mat.indptr[rows][:, None] + np.arange(k)
        cols = mat.indices[pos]
        scaled = alpha * mat.data[pos]
        key = np.hstack([cols.astype(np.int64), scaled.view(np.int64)])
        order = np.lexsort(key.T)
        key = key[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (key[1:] != key[:-1]).any(axis=1)
        system = np.cumsum(first) - 1
        copy_to.append(rows[order[~first]])
        copy_from.append(rows[order[first]][system[~first]])
        keep = np.concatenate([np.sort(order[first]), order[~first]])
        groups.append(_RowGroup(rows[keep], cols[keep], scaled[keep], int(first.sum())))
    return _RowPlan(
        mat.shape[0], tuple(groups), np.concatenate(copy_to), np.concatenate(copy_from)
    )


def _chunks(group: _RowGroup, n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, cols, scaled) of the group's first ``n`` rows, at most
    ``_CHUNK_ROWS`` at a time."""
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        yield group.rows[start:stop], group.cols[start:stop], group.scaled[start:stop]


def _solve_side(plan: _RowPlan, other: np.ndarray, lam: float) -> np.ndarray:
    """Solve all row subproblems of one half-sweep exactly.

    For each row with observed columns J, scaled ratings s = alpha r: solve
    (G + lam I + M^T diag(s) M) x = M^T (1 + s) with M = other[J] and
    G = other^T other computed once. Each distinct system is solved once,
    stacked with the others of its length into one matmul and one solve per
    chunk; both run the same BLAS/LAPACK kernel per slice, so results are
    bit-identical to per-row. Repeated systems get a copy of the solution.
    """
    a_base = other.T @ other + lam * np.eye(other.shape[1])
    out = np.zeros((plan.n_rows, other.shape[1]), dtype=np.float64)
    for group in plan.groups:
        for rows, cols, scaled in _chunks(group, group.n_systems):
            m = other[cols]
            mt = m.transpose(0, 2, 1)
            a = (mt * scaled[:, None, :]) @ m
            a += a_base  # in place: one (rows, f, f) temporary fewer
            b = mt @ (1.0 + scaled)[:, :, None]
            try:
                out[rows] = np.linalg.solve(a, b)[:, :, 0]
            except np.linalg.LinAlgError:  # re-solve row by row to name the row
                for row, a_row, b_row in zip(rows, a, b):
                    try:
                        out[row] = np.linalg.solve(a_row, b_row)[:, 0]
                    except np.linalg.LinAlgError:
                        raise SingularSystem(
                            f"singular subproblem at row {row} despite regularization {lam}"
                        ) from None
    out[plan.copy_to] = out[plan.copy_from]
    return out


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of ``values``, without a Python float per
    entry: the bits of ``math.fsum(values)`` wherever fsum does not fail on
    an intermediate overflow.

    Each finite value is an integer mantissa q, |q| < 2^53, times 2^(e - 53).
    q is split into three 18-bit digits, and ``np.bincount`` sums each digit
    per exponent e exactly: every partial sum is an integer below 2^53 for
    fewer than 2^35 values. The per-exponent sums are then added as Python
    integers, and one correctly rounded division of Python integers rounds
    the exact total once, subnormal results included.
    """
    values = values.ravel()
    if not values.size:
        return 0.0
    if not np.isfinite(values).all():  # fsum's inf, nan or ValueError
        return math.fsum(values.tolist())
    mant, exp = np.frexp(values)
    q = (mant * 2.0**53).astype(np.int64)
    low = int(exp.min())
    bins = exp - low
    total = 0
    for shift in (0, 18, 36):
        digit = q >> shift
        if shift < 36:  # the top digit keeps q's sign
            digit &= 2**18 - 1
        sums = np.bincount(bins, weights=digit)
        at = np.flatnonzero(sums)
        total += sum(int(v) << (e + shift) for e, v in zip(at.tolist(), sums[at].tolist()))
    scale = low - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _training_loss(x: np.ndarray, y: np.ndarray, plan: _RowPlan, lam: float) -> float:
    """Exact objective value: every sum is correctly rounded.

    The dense term sum_{u,i} (x_u . y_i)^2 reduces to the elementwise
    product of the two Gram matrices; observed cells of the user-side
    ``plan`` then swap in their confidence-weighted residuals, summed per
    row: one term as is, two with one add, more with ``math.fsum``. The
    other sums are ``_exact_sum``s, so the order of the rows does not
    matter.
    """
    gram_term = _exact_sum(x.T @ x * (y.T @ y))
    row_terms = [np.empty(0)]
    for group in plan.groups:
        for rows, cols, scaled in _chunks(group, len(group.rows)):
            s = (y[cols] @ x[rows][:, :, None])[:, :, 0]
            terms = (1.0 + scaled) * (1.0 - s) ** 2 - s * s
            if terms.shape[1] == 1:
                row_terms.append(terms[:, 0])
            elif terms.shape[1] == 2:
                row_terms.append(terms[:, 0] + terms[:, 1])
            else:
                row_terms.append(np.array(list(map(math.fsum, terms.tolist()))))
    cell_term = _exact_sum(np.concatenate(row_terms))
    reg = lam * (_exact_sum(x**2) + _exact_sum(y**2))
    return math.fsum([gram_term, cell_term, reg])


def fit_als(m: ConfidenceMatrix, cfg: AlsConfig) -> FactorModel:
    """Alternate exact user/item solves for cfg.iterations sweeps.

    Factors start from a seeded uniform draw on [0, 0.01]; the loss is
    recorded once per sweep (after both half-sweeps).
    """
    n_users, n_items = m.shape
    rng = np.random.default_rng(cfg.seed)
    user_factors = rng.uniform(0.0, 0.01, size=(n_users, cfg.factors))
    item_factors = rng.uniform(0.0, 0.01, size=(n_items, cfg.factors))
    by_user = _plan_rows(m.ratings, m.alpha)
    by_item = _plan_rows(m.ratings.T.tocsr(), m.alpha)
    trace: list[float] = []
    for _ in range(cfg.iterations):
        user_factors = _solve_side(by_user, item_factors, cfg.regularization)
        item_factors = _solve_side(by_item, user_factors, cfg.regularization)
        trace.append(_training_loss(user_factors, item_factors, by_user, cfg.regularization))
    return FactorModel(
        user_factors=user_factors,
        item_factors=item_factors,
        users=m.users,
        items=m.items,
        loss_trace=tuple(trace),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: FactorModel, path: str | Path) -> None:
    """Write the model as JSON: dims, row-major factors, ids, config, trace."""
    payload = {
        "kind": "als_factor_model",
        "n_users": len(model.users),
        "n_items": len(model.items),
        "factors": model.config.factors,
        "users": list(model.users),
        "items": list(model.items),
        "user_factors": model.user_factors.ravel().tolist(),
        "item_factors": model.item_factors.ravel().tolist(),
        "loss_trace": list(model.loss_trace),
        "config": asdict(model.config),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> FactorModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("kind") != "als_factor_model":
        raise ValueError(f"{path} is not a serialized factor model")
    cfg = AlsConfig(**payload["config"])
    n_users, n_items, n_f = payload["n_users"], payload["n_items"], payload["factors"]
    return FactorModel(
        user_factors=np.array(payload["user_factors"], dtype=np.float64).reshape(n_users, n_f),
        item_factors=np.array(payload["item_factors"], dtype=np.float64).reshape(n_items, n_f),
        users=tuple(payload["users"]),
        items=tuple(payload["items"]),
        loss_trace=tuple(payload["loss_trace"]),
        config=cfg,
    )
