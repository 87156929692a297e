"""Bayesian personalized ranking: pairwise matrix factorization for rankings.

Each step samples an observed (user, positive) pair and a uniformly drawn
negative item the user never interacted with, then ascends the log-likelihood
ln sigma(x_ui - x_uj) with L2 regularization. Scores are x_ui = p_u . q_i
(no bias terms).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..errors import DivergenceError
from .base import RecommenderModel, TrainMatrix


def pairwise_loss(margin: float) -> float:
    """-ln sigma(margin), computed stably for large |margin|."""
    return float(np.logaddexp(0.0, -margin))


def pairwise_loss_margin_gradient(margin: float) -> float:
    """d/dmargin of -ln sigma(margin) = -sigma(-margin)."""
    return -float(expit(-margin))


def sample_gradients(p_u, q_i, q_j, reg):
    """Gradients of -ln sigma(p_u.(q_i - q_j)) + 0.5*reg*(|p_u|^2+|q_i|^2+|q_j|^2)."""
    margin = float(p_u @ (q_i - q_j))
    g = -expit(-margin)
    return (
        g * (q_i - q_j) + reg * p_u,
        g * p_u + reg * q_i,
        -g * p_u + reg * q_j,
    )


class BPRModel(RecommenderModel):
    algorithm_id = "bpr"

    def __init__(self, matrix, config, p, q):
        super().__init__(matrix, config)
        self.p = p
        self.q = q

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return self.p[idx] @ self.q.T


def train_bpr(
    matrix: TrainMatrix,
    factors: int = 32,
    epochs: int = 30,
    lr: float = 0.05,
    reg: float = 0.002,
    seed: int = 0,
) -> BPRModel:
    """SGD over shuffled positives with rejection-sampled uniform negatives."""
    if factors < 1 or epochs < 0:
        raise ValueError("factors must be >= 1 and epochs >= 0")
    if lr <= 0 or reg < 0:
        raise ValueError("lr must be > 0 and reg >= 0")

    coo = sp.coo_matrix(matrix.matrix)
    pos_users, pos_items = coo.row, coo.col
    n_pos = pos_users.size
    n_items = matrix.n_items
    seen_sets = [set(s.tolist()) for s in matrix.seen]

    rng = np.random.default_rng(seed)
    p = 0.01 * rng.standard_normal((matrix.n_users, factors))
    q = 0.01 * rng.standard_normal((matrix.n_items, factors))

    for _ in range(epochs):
        for s in rng.permutation(n_pos):
            u, i = int(pos_users[s]), int(pos_items[s])
            seen = seen_sets[u]
            if len(seen) >= n_items:
                continue  # no negative exists for this user
            j = int(rng.integers(n_items))
            while j in seen:
                j = int(rng.integers(n_items))
            d = p[u] @ (q[i] - q[j])
            g = expit(-d)
            p_u = p[u].copy()
            p[u] += lr * (g * (q[i] - q[j]) - reg * p_u)
            q[i] += lr * (g * p_u - reg * q[i])
            q[j] += lr * (-g * p_u - reg * q[j])
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise DivergenceError(f"bpr diverged (non-finite factors) at lr={lr}")

    config = {"factors": factors, "epochs": epochs, "lr": lr, "reg": reg, "seed": seed}
    return BPRModel(matrix, config, p, q)
