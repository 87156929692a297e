"""Bayesian personalized ranking: pairwise matrix factorization for rankings.

Each step samples an observed (user, positive) pair and a uniformly drawn
negative item the user never interacted with, then ascends the log-likelihood
ln sigma(x_ui - x_uj) with L2 regularization. Scores are x_ui = p_u . q_i
(no bias terms).

Each epoch visits the positives in one seeded shuffle. The negatives never
depend on the factors, so a pre-pass (:func:`draw_negatives`) draws them
first, the same draws from the same RNG stream as a per-sample loop; users
who have seen every item have no negative, draw nothing and are skipped. The
updates are then applied as a wavefront: a sample reads and writes only p_u,
q_i and q_j, so samples that share no user and no item commute exactly.
:func:`~.base.wavefronts` groups the shuffle into levels of such samples,
keeping every sample after the earlier ones it shares a user or an item with,
and each level is one vectorised update that reads (p_u, q_i, q_j) of all its
samples before writing any. Margins go through :func:`~.base.row_dots`, the
kernel of ``p_u @ (q_i - q_j)``, so the factors are bit for bit those of the
sequential loop over the same shuffle and draws.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..errors import DivergenceError
from .base import RecommenderModel, TrainMatrix, row_dots, wavefronts


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


def draw_negatives(
    rng: np.random.Generator, users: np.ndarray, n_items: int, seen_sets: list[set]
) -> np.ndarray:
    """One uniform unseen item per entry of ``users``, by rejection sampling.

    Every user must have an unseen item. The result and the final state of
    ``rng`` equal those of a loop that calls ``rng.integers(n_items)`` for each
    user in turn until it draws an unseen item: ``Generator.integers`` gives the
    same values and state for k draws in one call as in k calls, and each batch
    asks for one draw per user still without a negative, never more than that
    loop takes.
    """
    users = users.tolist()
    negatives: list[int] = []
    while len(negatives) < len(users):
        for j in rng.integers(n_items, size=len(users) - len(negatives)).tolist():
            if j not in seen_sets[users[len(negatives)]]:  # a rejected draw goes to the same user
                negatives.append(j)
    return np.asarray(negatives, dtype=np.int64)


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
    has_negative = np.array([len(seen) < n_items for seen in seen_sets], dtype=bool)

    rng = np.random.default_rng(seed)
    p = 0.01 * rng.standard_normal((matrix.n_users, factors))
    q = 0.01 * rng.standard_normal((matrix.n_items, factors))

    for _ in range(epochs):
        shuffle = rng.permutation(n_pos)
        shuffle = shuffle[has_negative[pos_users[shuffle]]]  # no negative exists for the others
        users = pos_users[shuffle]
        items = np.column_stack((pos_items[shuffle], draw_negatives(rng, users, n_items, seen_sets)))
        for level in wavefronts(users, items, matrix.n_users, n_items):
            u, (i, j) = users[level], items[level].T
            p_u, q_i, q_j = p[u], q[i], q[j]
            diff = q_i - q_j
            g = expit(-row_dots(p_u, diff))[:, None]
            p[u] = p_u + lr * (g * diff - reg * p_u)
            q[i] = q_i + lr * (g * p_u - reg * q_i)
            q[j] = q_j + lr * (-g * p_u - reg * q_j)
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise DivergenceError(f"bpr diverged (non-finite factors) at lr={lr}")

    config = {"factors": factors, "epochs": epochs, "lr": lr, "reg": reg, "seed": seed}
    model = BPRModel(matrix, config, p, q)
    model.train_ops = n_pos * factors * epochs
    return model
