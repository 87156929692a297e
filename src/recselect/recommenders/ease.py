"""EASE: closed-form item-item linear autoencoder with a zero diagonal.

With Gram matrix G = X^T X + l2 * I and P = G^{-1}, the item weight matrix is

    B = I - P * diag(1 / diag(P)),   diag(B) = 0,

the exact solution of min |X - XB|_F^2 + l2 |B|_F^2 s.t. diag(B) = 0.
User scores are the corresponding row of X B.

Two items interact in G only when some user holds both, so under a
permutation that groups the connected components of the item co-occurrence
graph, G, P and B are block-diagonal. Training therefore solves one block per
component (by Cholesky) and leaves B = 0 between components and for
single-item components, which is exact, not an approximation. Rounding still
differs from a full dense inverse in the last bits; rankings do not, because
``top_k`` snaps scores before it breaks ties.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from ..errors import MatrixInversionError
from .base import RecommenderModel, TrainMatrix


def ease_weights(x_gram: np.ndarray, l2: float) -> np.ndarray:
    """Solve for B from a dense item Gram matrix by a Cholesky inverse of G."""
    g = x_gram + l2 * np.eye(x_gram.shape[0])
    chol, info = lapack.dpotrf(g)
    if info != 0:
        raise MatrixInversionError(
            f"Gram matrix inversion failed at l2={l2}; increase the l2 penalty"
        )
    p, info = lapack.dpotri(chol)  # upper triangle of G^{-1}
    lower = np.tril_indices_from(p, k=-1)
    p[lower] = p.T[lower]
    diag = np.diag(p)
    if info != 0 or not np.all(np.isfinite(p)) or np.any(diag == 0):
        raise MatrixInversionError(
            f"Gram matrix is numerically singular at l2={l2}; increase the l2 penalty"
        )
    b = -p / diag[None, :]
    np.fill_diagonal(b, 0.0)
    return b


class EaseModel(RecommenderModel):
    algorithm_id = "ease"

    def __init__(self, matrix, config, x, b):
        super().__init__(matrix, config)
        self.x = x
        self.b = b

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return self.x[idx] @ self.b


def train_ease(matrix: TrainMatrix, l2: float = 10.0, binarize: bool = True) -> EaseModel:
    """Dense B assembled from one ``ease_weights`` block per co-occurrence component."""
    if l2 <= 0:
        raise ValueError("l2 must be > 0")
    x = (matrix.binarized() if binarize else matrix.matrix).tocsr()
    gram = (x.T @ x).tocsr()
    n_components, labels = connected_components(gram, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=n_components))[:-1]
    b = np.zeros(gram.shape)
    for items in np.split(order, bounds):
        if items.size > 1:
            block = gram[items][:, items].toarray()
            b[np.ix_(items, items)] = ease_weights(block, l2)
    return EaseModel(matrix, {"l2": l2, "binarize": binarize}, x, b)
