"""Implicit-feedback matrix factorization via alternating least squares.

Observed interactions carry confidence c = 1 + alpha * r toward preference 1;
every unobserved cell participates with confidence 1 toward preference 0
(Hu, Koren & Volinsky, ICDM 2008). Each half-step solves the exact regularized
normal equations for one side, using the rank-restricted update

    A = Q^T Q + Q_s^T diag(c_s - 1) Q_s + reg * I,   b = Q_s^T c_s,

where s indexes the user's observed items. The second term is a weighted sum
of the outer products q_i q_i^T of the other side's rows, formed once per row
of the other side rather than once per stored entry (see
:func:`normal_equations`). A is symmetric positive definite for reg > 0, which
the Cholesky factorization asserts on every solve. Each half-step solves the
rows of one side in a few large batches (see :func:`solve_side`).

Rows with equal stored entries (the same column indices and values, in the
same order) have equal systems, term for term, and :func:`solve_side` solves
every row on its own. So training solves one row of each such group and
copies its factors to the others, bit for bit what solving every row gives
(:func:`distinct_rows`). Most items of a sparse catalog have a single
interaction, and their rows collapse to one per (user, value).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import DivergenceError
from .base import RecommenderModel, TrainMatrix, row_dots


def normal_equations(factors_other: np.ndarray, csr: sp.csr_matrix, alpha: float, reg: float):
    """The stacked systems ``A`` (rows, k, k) and ``b`` (rows, k) of one half-step.

    Each sum over a row's stored entries is that row of a sparse product: the
    CSR matrix of weights on ``csr``'s own indices and indptr (``c - 1`` for
    ``A``, ``c`` for ``b``) times, for ``A``, the other side's outer products
    ``q q^T``, one per row of the other side flattened to k^2 values, and for
    ``b`` its factors. A row adds its entries' terms in stored order, and a
    row with no entries sums to zero.
    """
    k = factors_other.shape[1]
    conf = 1.0 + alpha * csr.data

    def weighted_rows(weights, rows):
        return sp.csr_matrix((weights, csr.indices, csr.indptr), shape=(csr.shape[0], rows.shape[0])) @ rows

    outer = (factors_other[:, :, None] * factors_other[:, None, :]).reshape(-1, k * k)
    a = weighted_rows(conf - 1.0, outer).reshape(-1, k, k)
    a += factors_other.T @ factors_other + reg * np.eye(k)
    return a, weighted_rows(conf, factors_other)


# Values of A (rows x k x k) solved at once: a block's systems and factors stay in cache.
_BLOCK_VALUES = 2**18


def solve_side(factors_other: np.ndarray, csr: sp.csr_matrix, alpha: float, reg: float) -> np.ndarray:
    """Solve every row of one side given the other side's factors.

    Rows are solved in blocks of ``_BLOCK_VALUES // k^2``. A block's systems
    from :func:`normal_equations` are factored with one batched LAPACK
    Cholesky, ``A = L L^T``, then solved by a forward and a back substitution,
    each k steps over all of the block's rows at once. Every row is solved on
    its own, so the blocks change no result; the factors match a per-row
    ``cho_solve`` to rounding.
    """
    k = factors_other.shape[1]
    block = max(1, _BLOCK_VALUES // k**2)
    x = np.empty((csr.shape[0], k))
    for start in range(0, csr.shape[0], block):
        a, b = normal_equations(factors_other, csr[start:start + block], alpha, reg)
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise DivergenceError(f"ALS normal equations not positive definite: {exc}") from exc
        y = np.empty_like(b)
        for i in range(k):  # L y = b
            y[:, i] = (b[:, i] - row_dots(chol[:, i, :i], y[:, :i])) / chol[:, i, i]
        rows = x[start:start + block]
        for i in reversed(range(k)):  # L^T x = y
            rows[:, i] = (y[:, i] - row_dots(chol[:, i + 1:, i], rows[:, i + 1:])) / chol[:, i, i]
    return x


def distinct_rows(csr: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each group of rows with equal stored entries, and each row's group.

    Returns ``(first, group)``: ``first`` is ascending, and row ``r`` of ``csr``
    stores the same indices and values, in order and bit for bit, as row
    ``first[group[r]]``. Rows are compared within each stored length, all of
    one length at once.
    """
    lengths = np.diff(csr.indptr)
    data = np.asarray(csr.data, dtype=np.float64)
    rep = np.empty(csr.shape[0], dtype=np.int64)  # smallest row with the same entries
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        at = csr.indptr[rows][:, None] + np.arange(length)
        keys = np.hstack([csr.indices[at].astype(np.int64), data[at].view(np.int64)])
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        rep[rows] = rows[first][inverse.reshape(-1)]
    first = np.flatnonzero(rep == np.arange(rep.size))
    return first, np.searchsorted(first, rep)


def weighted_objective(p: np.ndarray, q: np.ndarray, csr: sp.csr_matrix, alpha: float, reg: float) -> float:
    """Confidence-weighted squared loss over all cells plus the L2 penalty.

    Materializes the dense score matrix; intended for test-scale matrices.
    """
    scores = p @ q.T
    total = float((scores * scores).sum())  # every cell at baseline confidence 1, target 0
    coo = sp.coo_matrix(csr)
    for u, i, r in zip(coo.row, coo.col, coo.data):
        c = 1.0 + alpha * r
        s = scores[u, i]
        total += c * (1.0 - s) ** 2 - s * s  # replace the baseline term for observed cells
    total += reg * (float((p * p).sum()) + float((q * q).sum()))
    return total


class ImplicitMFModel(RecommenderModel):
    algorithm_id = "implicitmf"

    def __init__(self, matrix, config, p, q):
        super().__init__(matrix, config)
        self.p = p
        self.q = q

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return self.p[idx] @ self.q.T


def train_implicitmf(
    matrix: TrainMatrix,
    factors: int = 32,
    iterations: int = 15,
    reg: float = 0.1,
    alpha: float = 40.0,
    seed: int = 0,
) -> ImplicitMFModel:
    if factors < 1 or iterations < 0:
        raise ValueError("factors must be >= 1 and iterations >= 0")
    if reg <= 0:
        raise ValueError("reg must be > 0 (positive definiteness of the solves)")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")

    rng = np.random.default_rng(seed)
    p = 0.01 * rng.standard_normal((matrix.n_users, factors))
    q = 0.01 * rng.standard_normal((matrix.n_items, factors))
    csr = matrix.matrix.tocsr()
    csc_t = matrix.matrix.T.tocsr()
    users, user_group = distinct_rows(csr)
    items, item_group = distinct_rows(csc_t)
    user_rows, item_rows = csr[users], csc_t[items]

    for _ in range(iterations):
        p = solve_side(q, user_rows, alpha, reg)[user_group]
        q = solve_side(p, item_rows, alpha, reg)[item_group]

    config = {
        "factors": factors,
        "iterations": iterations,
        "reg": reg,
        "alpha": alpha,
        "seed": seed,
    }
    model = ImplicitMFModel(matrix, config, p, q)
    # Per iteration: k^2 multiply-adds per stored entry and side (its weighted outer product), a k^3 solve per row,
    # counted for every row though equal rows share one solve.
    model.train_ops = iterations * (2 * csr.nnz * factors**2 + (matrix.n_users + matrix.n_items) * factors**3)
    return model
