"""Implicit-feedback matrix factorization via alternating least squares.

Observed interactions carry confidence c = 1 + alpha * r toward preference 1;
every unobserved cell participates with confidence 1 toward preference 0. Each
half-step solves the exact regularized normal equations for one side, using
the rank-restricted update

    A = Q^T Q + Q_s^T diag(c_s - 1) Q_s + reg * I,   b = Q_s^T c_s,

where s indexes the user's observed items. A is symmetric positive definite
for reg > 0, which the Cholesky factorization asserts on every solve. Each
half-step solves all rows of one side in one batch (see :func:`solve_side`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import DivergenceError
from .base import RecommenderModel, TrainMatrix


def solve_side(factors_other: np.ndarray, csr: sp.csr_matrix, alpha: float, reg: float) -> np.ndarray:
    """Solve every row of one side given the other side's factors.

    All rows' k x k systems are built at once. Each stored entry contributes
    an outer product, summed over its CSR row's segment by a sparse product
    whose rows are the segments (a row with no entries sums to zero). The
    stacked systems are solved with one batched Cholesky factorization. The
    sums run in another order than a per-row product, so factors match a
    per-row solve to rounding.
    """
    n_rows = csr.shape[0]
    k = factors_other.shape[1]
    gram = factors_other.T @ factors_other + reg * np.eye(k)
    q_s = factors_other[csr.indices]
    conf = 1.0 + alpha * csr.data
    entries = np.arange(csr.nnz)

    def segment_sum(weights, rows):
        return sp.csr_matrix((weights, entries, csr.indptr), shape=(n_rows, csr.nnz)) @ rows

    outer = (q_s[:, :, None] * q_s[:, None, :]).reshape(csr.nnz, k * k)
    a = gram + segment_sum(conf - 1.0, outer).reshape(n_rows, k, k)
    b = segment_sum(conf, q_s)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"ALS normal equations not positive definite: {exc}") from exc
    y = np.linalg.solve(chol, b[:, :, None])
    return np.linalg.solve(np.swapaxes(chol, 1, 2), y)[:, :, 0]


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

    for _ in range(iterations):
        p = solve_side(q, csr, alpha, reg)
        q = solve_side(p, csc_t, alpha, reg)

    config = {
        "factors": factors,
        "iterations": iterations,
        "reg": reg,
        "alpha": alpha,
        "seed": seed,
    }
    model = ImplicitMFModel(matrix, config, p, q)
    # Per iteration: a k x k outer product per stored entry and side, a k^3 solve per row.
    model.train_ops = iterations * (2 * csr.nnz * factors**2 + (matrix.n_users + matrix.n_items) * factors**3)
    return model
