"""Biased matrix factorization trained with stochastic gradient descent.

Prediction: r_hat(u, i) = mu + b_u + b_i + p_u . q_i. Each training sample
contributes the regularized squared-error loss

    L = 0.5 * e^2 + 0.5 * reg * (b_u^2 + b_i^2 + |p_u|^2 + |q_i|^2),

with e = r - r_hat, whose negative gradients give the classic update rules
b_u += lr * (e - reg * b_u), p_u += lr * (e * q_i - reg * p_u), etc.
With factors=0 the model degenerates to the global-mean-plus-biases predictor.

Each epoch visits the samples in one seeded shuffle and is applied as a
wavefront: a sample's update reads and writes only its user's and its item's
parameters, so samples that share no user and no item commute exactly.
:func:`~.base.wavefronts` groups the shuffle into levels of such samples,
keeping every sample after the earlier ones it shares a user or an item with,
and each level is one vectorised update that reads (b_u, b_i, p_u, q_i) of all
its samples before writing any. Row dot products go through
:func:`~.base.row_dots`, the kernel of ``p_u @ q_i``. The factors, biases and
epoch objectives are therefore bit for bit those of the sequential loop over
the same shuffle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import DivergenceError
from .base import RecommenderModel, TrainMatrix, row_dots, wavefronts


def predict_one(mu: float, b_u: float, b_i: float, p_u: np.ndarray, q_i: np.ndarray) -> float:
    return mu + b_u + b_i + float(p_u @ q_i)


def sample_loss(mu, b_u, b_i, p_u, q_i, rating, reg) -> float:
    """Regularized half squared error of one training sample."""
    e = rating - predict_one(mu, b_u, b_i, p_u, q_i)
    penalty = b_u * b_u + b_i * b_i + float(p_u @ p_u) + float(q_i @ q_i)
    return 0.5 * e * e + 0.5 * reg * penalty


def sample_gradients(mu, b_u, b_i, p_u, q_i, rating, reg):
    """Analytic gradients of :func:`sample_loss` w.r.t. (b_u, b_i, p_u, q_i)."""
    e = rating - predict_one(mu, b_u, b_i, p_u, q_i)
    return (
        -e + reg * b_u,
        -e + reg * b_i,
        -e * q_i + reg * p_u,
        -e * p_u + reg * q_i,
    )


def training_objective(mu, b_user, b_item, p, q, users, items, ratings, reg) -> float:
    """Full-dataset objective: sum of squared errors plus the L2 penalty.

    The squared errors are added in sample order from 0.0 (a cumulative sum
    is sequential), as a per-sample loop with :func:`predict_one` adds them.
    """
    e = ratings - (mu + b_user[users] + b_item[items] + row_dots(p[users], q[items]))
    total = np.cumsum(np.concatenate(([0.0], e * e)))[-1]
    penalty = float(b_user @ b_user + b_item @ b_item) + float((p * p).sum() + (q * q).sum())
    return total + reg * penalty


class BiasedMFModel(RecommenderModel):
    algorithm_id = "biasedmf"

    def __init__(self, matrix, config, mu, b_user, b_item, p, q, epoch_objectives):
        super().__init__(matrix, config)
        self.mu = mu
        self.b_user = b_user
        self.b_item = b_item
        self.p = p
        self.q = q
        self.epoch_objectives = epoch_objectives

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return self.mu + self.b_user[idx, None] + self.b_item + self.p[idx] @ self.q.T


def train_biasedmf(
    matrix: TrainMatrix,
    factors: int = 32,
    epochs: int = 20,
    lr: float = 0.01,
    reg: float = 0.02,
    seed: int = 0,
) -> BiasedMFModel:
    """SGD over all observed ratings, one seeded shuffle per epoch, applied in wavefronts."""
    if factors < 0 or epochs < 0:
        raise ValueError("factors and epochs must be >= 0")
    if lr <= 0 or reg < 0:
        raise ValueError("lr must be > 0 and reg >= 0")

    coo = sp.coo_matrix(matrix.matrix)
    users, items, ratings = coo.row, coo.col, coo.data
    n_samples = ratings.size

    rng = np.random.default_rng(seed)
    mu = float(ratings.mean())
    b_user = np.zeros(matrix.n_users)
    b_item = np.zeros(matrix.n_items)
    p = rng.normal(0.0, 0.1, size=(matrix.n_users, factors))
    q = rng.normal(0.0, 0.1, size=(matrix.n_items, factors))

    objectives = []
    for _ in range(epochs):
        shuffle = rng.permutation(n_samples)
        for level in wavefronts(users[shuffle], items[shuffle, None], matrix.n_users, matrix.n_items):
            s = shuffle[level]
            u, i = users[s], items[s]
            b_u, b_i, p_u, q_i = b_user[u], b_item[i], p[u], q[i]
            e = ratings[s] - (mu + b_u + b_i + row_dots(p_u, q_i))
            b_user[u] = b_u + lr * (e - reg * b_u)
            b_item[i] = b_i + lr * (e - reg * b_i)
            e = e[:, None]
            p[u] = p_u + lr * (e * q_i - reg * p_u)
            q[i] = q_i + lr * (e * p_u - reg * q_i)
        objective = training_objective(mu, b_user, b_item, p, q, users, items, ratings, reg)
        if not np.isfinite(objective):
            raise DivergenceError(
                f"biasedmf diverged (non-finite objective) at lr={lr}; lower the learning rate"
            )
        objectives.append(objective)

    config = {"factors": factors, "epochs": epochs, "lr": lr, "reg": reg, "seed": seed}
    model = BiasedMFModel(matrix, config, mu, b_user, b_item, p, q, objectives)
    model.train_ops = n_samples * (factors + 1) * epochs  # a factor row and a bias per side and sample
    return model
