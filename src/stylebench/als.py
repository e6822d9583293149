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
from typing import NamedTuple

import numpy as np

from .data import Dataset, read_json_object
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


class Csr(NamedTuple):
    """Compressed sparse rows: row r holds ``data[j]`` in column
    ``indices[j]`` for j in ``indptr[r]:indptr[r + 1]``, columns ascending."""

    indptr: np.ndarray  # (rows + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    data: np.ndarray  # (nnz,) float64
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def transpose(self) -> Csr:
        """The transpose; a stable sort by column keeps each column's rows ascending."""
        n_rows, n_cols = self.shape
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(n_rows), np.diff(self.indptr))
        indptr = np.searchsorted(self.indices[order], np.arange(n_cols + 1))
        return Csr(indptr, rows[order], self.data[order], (n_cols, n_rows))


@dataclass(frozen=True, eq=False)
class ConfidenceMatrix:
    """Sparse user x item implicit ratings, rows ``users`` and columns ``items``.

    ``ratings`` stores r_ui for observed cells only; confidence is
    derived as 1 + alpha * r_ui.
    """

    ratings: Csr
    users: tuple[str, ...]
    items: tuple[str, ...]
    alpha: float

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


def build_confidence(train: Dataset, cfg: AlsConfig) -> ConfidenceMatrix:
    """Collapse training events into per-pair implicit ratings.

    A pair with at least one sale gets r = sale_weight regardless of
    views or units; a pair with views only gets r = 1.
    """
    if not train.n_events:
        raise EmptyTraining("cannot build a confidence matrix from zero events")
    rows, cols, sold = train.pairs()  # ascending, so already in row order
    n_users, n_items = len(train.user_ids), len(train.item_ids)
    indptr = np.searchsorted(rows, np.arange(n_users + 1))
    ratings = Csr(indptr, cols, np.where(sold, cfg.sale_weight, 1.0), (n_users, n_items))
    return ConfidenceMatrix(ratings, train.user_ids, train.item_ids, cfg.alpha)


_CHUNK_ROWS = 256  # rows per stacked solve; bounds its (rows, f, f) stacks


class _RowPlan(NamedTuple):
    """One side's non-empty rows as chunks of at most ``_CHUNK_ROWS`` rows with
    k cells each: (rows, (n, k) columns, (n, k) alpha * rating), by k, then row."""

    n_rows: int
    chunks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _plan_rows(mat: Csr, alpha: float) -> _RowPlan:
    """Chunk ``mat``'s non-empty rows by length."""
    lengths = np.diff(mat.indptr)
    chunks = []
    for k in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == k)
        pos = mat.indptr[rows][:, None] + np.arange(k)
        cols = mat.indices[pos]
        with np.errstate(over="ignore"):  # an inf fails in _solve_side, naming its row
            scaled = alpha * mat.data[pos]
        for start in range(0, len(rows), _CHUNK_ROWS):
            at = slice(start, start + _CHUNK_ROWS)
            chunks.append((rows[at], cols[at], scaled[at]))
    return _RowPlan(mat.shape[0], tuple(chunks))


def _solve_rows(
    m: np.ndarray, scaled: np.ndarray, a_base: np.ndarray, b_inv: np.ndarray
) -> np.ndarray:
    """Solutions x of a stack of row systems (B + M^T S M) x = M^T (1 + s),
    one per slice of ``m`` (rows, k, f) and ``scaled`` (rows, k), with
    B = ``a_base`` and S = diag(s).

    With k < f, the Woodbury identity gives x = C^T z, where C = M B^-1
    and (I + S C M^T) z = 1 + s: a k x k solve against the shared
    ``b_inv`` that never divides by s. With k >= f the f x f system is
    built and solved as it is. Every product is a stacked matmul or solve,
    which runs the same BLAS/LAPACK kernel on each slice, so a row's bits
    do not depend on the rows stacked with it.
    """
    k, n_f = m.shape[1:]
    rhs = (1.0 + scaled)[:, :, None]
    mt = m.transpose(0, 2, 1)
    if k < n_f:
        c = m @ b_inv
        z = np.linalg.solve(np.eye(k) + scaled[:, :, None] * (c @ mt), rhs)
        return (c.transpose(0, 2, 1) @ z)[:, :, 0]
    a = (mt * scaled[:, None, :]) @ m
    a += a_base  # in place: one (rows, f, f) temporary fewer
    return np.linalg.solve(a, mt @ rhs)[:, :, 0]


def _solve_side(plan: _RowPlan, other: np.ndarray, lam: float) -> np.ndarray:
    """Solve all row subproblems of one half-sweep exactly.

    For each row with observed columns J, scaled ratings s = alpha r: solve
    (B + M^T diag(s) M) x = M^T (1 + s) with M = other[J] and
    B = other^T other + lam I, computed and inverted once. Every row is
    solved, stacked with the others of its length into one chunk of
    ``_solve_rows``: a k x k solve against B^-1 for a row with fewer cells
    k than factors f, else the f x f solve. So each row's solution is
    bit-identical to solving that row alone, for any chunk, and agrees
    with an f x f LU solve per row to about 1e-12 relative (row norm). It
    is the same for any BLAS thread count unless the row has thousands of
    cells, which makes its f x f product a BLAS call large enough to run
    threaded. A chunk whose solve raises or returns non-finite values is
    re-solved row by row, and ``SingularSystem`` names its lowest failing
    row.
    """
    a_base = other.T @ other + lam * np.eye(other.shape[1])
    try:
        b_inv = np.linalg.inv(a_base)
    except np.linalg.LinAlgError:  # each row with k < f then solves to NaN
        b_inv = np.full_like(a_base, np.nan)
    out = np.zeros((plan.n_rows, other.shape[1]), dtype=np.float64)
    with np.errstate(all="ignore"):  # non-finite solutions raise below
        for rows, cols, scaled in plan.chunks:
            out[rows] = _checked_solve(rows, other[cols], scaled, a_base, b_inv, lam)
    return out


def _checked_solve(
    rows: np.ndarray, m: np.ndarray, scaled: np.ndarray, a_base: np.ndarray,
    b_inv: np.ndarray, lam: float,
) -> np.ndarray:
    """``_solve_rows`` of one chunk, or ``SingularSystem`` naming the
    lowest row whose solve, alone, raises or is not finite."""
    try:
        x = _solve_rows(m, scaled, a_base, b_inv)
        if np.isfinite(x).all():
            return x
    except np.linalg.LinAlgError:
        pass
    x = np.empty((len(rows), m.shape[2]))
    for i, row in enumerate(rows):
        try:
            x[i] = _solve_rows(m[i : i + 1], scaled[i : i + 1], a_base, b_inv)[0]
        except np.linalg.LinAlgError:
            raise SingularSystem(
                f"singular subproblem at row {row} despite regularization {lam}"
            ) from None
        if not np.isfinite(x[i]).all():
            raise SingularSystem(
                f"subproblem at row {row} has a non-finite solution (regularization {lam})"
            )
    return x


def _training_loss(x: np.ndarray, y: np.ndarray, plan: _RowPlan, lam: float) -> float:
    """Exact objective value: one correctly rounded sum of all its terms.

    With Gram matrices G_x = x^T x and G_y = y^T y, the dense term
    sum_{u,i} (x_u . y_i)^2 is the sum of the entries of G_x * G_y, and
    the regularizer is lam * (trace G_x + trace G_y). Each observed cell
    of the user-side ``plan``, with prediction s, then swaps its s^2 for
    its confidence-weighted residual. One ``math.fsum`` adds all these
    terms, so the order of the rows and their chunks does not matter.
    """
    gx, gy = x.T @ x, y.T @ y
    terms = [(gx * gy).ravel(), lam * np.diag(gx), lam * np.diag(gy)]
    for rows, cols, scaled in plan.chunks:
        s = (y[cols] @ x[rows][:, :, None])[:, :, 0]
        terms.append(((1.0 + scaled) * (1.0 - s) ** 2 - s * s).ravel())
    return math.fsum(np.concatenate(terms).tolist())


def fit_als(m: ConfidenceMatrix, cfg: AlsConfig) -> FactorModel:
    """Alternate exact user/item solves for cfg.iterations sweeps.

    Factors start from a seeded uniform draw on [0, 0.01]; the loss is
    recorded once per sweep (after both half-sweeps). Each half-sweep
    (``_solve_side``) solves a row with fewer observed cells k than
    factors as a k x k Woodbury system against one shared inverse, and
    any other row as its f x f normal equations. The factors do not
    depend on how rows are stacked, nor on the BLAS thread count unless a
    row has thousands of cells.
    """
    n_users, n_items = m.shape
    rng = np.random.default_rng(cfg.seed)
    user_factors = rng.uniform(0.0, 0.01, size=(n_users, cfg.factors))
    item_factors = rng.uniform(0.0, 0.01, size=(n_items, cfg.factors))
    by_user = _plan_rows(m.ratings, m.alpha)
    by_item = _plan_rows(m.ratings.transpose(), m.alpha)
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
    payload = read_json_object(path, "model")
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
