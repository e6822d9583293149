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
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .errors import EmptyTraining, SingularSystem, UnknownItem, UnknownUser


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

    def confidence(self, user_id: str, item_id: str) -> float:
        """Confidence for one cell; 1.0 when the pair was never observed."""
        r = self.ratings[self.user_index[user_id], self.item_index[item_id]]
        return 1.0 + self.alpha * float(r)


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

    def scores_for_user(self, user_id: str, item_idx: np.ndarray | None = None) -> np.ndarray:
        """Score vector x_u . Y^T over the given item indices (all by default)."""
        try:
            u = self.user_index[user_id]
        except KeyError:
            raise UnknownUser(
                f"user {user_id!r} was not in training; CF cannot score new users"
            ) from None
        xu = self.user_factors[u]
        if item_idx is None:
            return self.item_factors @ xu
        return self.item_factors[item_idx] @ xu


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


def _row_groups(indptr: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunks of rows sharing one nonzero length k, with the (rows, k)
    positions of their entries in the CSR ``indices``/``data``."""
    lengths = np.diff(indptr)
    for k in np.unique(lengths[lengths > 0]):
        same = np.flatnonzero(lengths == k)
        for start in range(0, len(same), _CHUNK_ROWS):
            rows = same[start : start + _CHUNK_ROWS]
            yield rows, indptr[rows][:, None] + np.arange(k)


def _solve_side(
    mat: sp.csr_matrix, other: np.ndarray, alpha: float, lam: float
) -> np.ndarray:
    """Solve all row subproblems of one half-sweep exactly.

    For each row with observed columns J, ratings r: solve
    (G + lam I + M^T diag(alpha r) M) x = M^T (1 + alpha r) with
    M = other[J] and G = other^T other computed once. Rows of equal length
    are stacked into one matmul and one solve per chunk; both run the same
    BLAS/LAPACK kernel per slice, so results are bit-identical to per-row.
    """
    a_base = other.T @ other + lam * np.eye(other.shape[1])
    out = np.zeros((mat.shape[0], other.shape[1]), dtype=np.float64)
    for rows, pos in _row_groups(mat.indptr):
        scaled = alpha * mat.data[pos]
        m = other[mat.indices[pos]]
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
    return out


def _training_loss(
    x: np.ndarray, y: np.ndarray, mat: sp.csr_matrix, alpha: float, lam: float
) -> float:
    """Exact objective value, accumulated with compensated summation.

    The dense term sum_{u,i} (x_u . y_i)^2 reduces to the elementwise
    product of the two Gram matrices; observed cells then swap in their
    confidence-weighted residuals, one ``math.fsum`` per row.
    """
    gram_term = math.fsum((x.T @ x * (y.T @ y)).ravel().tolist())
    cell_terms: list[float] = []
    for rows, pos in _row_groups(mat.indptr):
        s = (y[mat.indices[pos]] @ x[rows][:, :, None])[:, :, 0]
        conf = 1.0 + alpha * mat.data[pos]
        cell_terms.extend(map(math.fsum, (conf * (1.0 - s) ** 2 - s * s).tolist()))
    reg = lam * (math.fsum((x.ravel() ** 2).tolist()) + math.fsum((y.ravel() ** 2).tolist()))
    return math.fsum([gram_term, math.fsum(cell_terms), reg])


def fit_als(m: ConfidenceMatrix, cfg: AlsConfig) -> FactorModel:
    """Alternate exact user/item solves for cfg.iterations sweeps.

    Factors start from a seeded uniform draw on [0, 0.01]; the loss is
    recorded once per sweep (after both half-sweeps).
    """
    n_users, n_items = m.shape
    rng = np.random.default_rng(cfg.seed)
    user_factors = rng.uniform(0.0, 0.01, size=(n_users, cfg.factors))
    item_factors = rng.uniform(0.0, 0.01, size=(n_items, cfg.factors))
    by_item = m.ratings.T.tocsr()
    trace: list[float] = []
    for _ in range(cfg.iterations):
        user_factors = _solve_side(m.ratings, item_factors, m.alpha, cfg.regularization)
        item_factors = _solve_side(by_item, user_factors, m.alpha, cfg.regularization)
        trace.append(_training_loss(user_factors, item_factors, m.ratings, m.alpha, cfg.regularization))
    return FactorModel(
        user_factors=user_factors,
        item_factors=item_factors,
        users=m.users,
        items=m.items,
        loss_trace=tuple(trace),
        config=cfg,
    )


def predict_scores(model: FactorModel, user_id: str, item_ids: list[str]) -> list[float]:
    """Dot-product scores x_u . y_i for the given items, in input order.

    Raises UnknownUser for users absent from training (new users) and
    UnknownItem for items outside the training item universe.
    """
    try:
        idx = np.array([model.item_index[i] for i in item_ids], dtype=np.int64)
    except KeyError as exc:
        raise UnknownItem(f"item {exc.args[0]!r} was not in training") from None
    return [float(v) for v in model.scores_for_user(user_id, idx)]


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
