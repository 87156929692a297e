"""EASE: closed-form item-item linear autoencoder with a zero diagonal.

With Gram matrix G = X^T X + l2 * I and P = G^{-1}, the item weight matrix is

    B = I - P * diag(1 / diag(P)),   diag(B) = 0,

the exact solution of min |X - XB|_F^2 + l2 |B|_F^2 s.t. diag(B) = 0.
User scores are the corresponding row of X B.

Two items interact in G only when some user holds both, so under a
permutation that groups the connected components of the item co-occurrence
graph, G, P and B are block-diagonal. Training therefore solves one block per
multi-item component (by Cholesky) and stores B as one block-diagonal CSR:
each item's row holds its component's weights, zero diagonal included, and
nothing else. B is zero between components and for single-item components,
which is exact, not an approximation, so no n_items x n_items array is ever
built. Scoring is the sparse product of the history and B; the terms it
leaves out multiply exact zeros, so the scores are bitwise those of the
history times the dense B. Rounding still differs from a full dense inverse
in the last bits; rankings do not, because ``top_k`` snaps scores before it
breaks ties.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
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
    """Scores are the history ``x`` times the block-diagonal CSR ``weights``."""

    algorithm_id = "ease"

    def __init__(self, matrix, config, x, weights):
        super().__init__(matrix, config)
        self.x = x
        self.weights = weights

    @property
    def b(self) -> np.ndarray:
        """Every block's k x k weights as stored: the CSR's ``data``."""
        return self.weights.data

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return (self.x[idx] @ self.weights).toarray()


def train_ease(matrix: TrainMatrix, l2: float = 10.0, binarize: bool = True) -> EaseModel:
    """One ``ease_weights`` block per multi-item co-occurrence component."""
    if l2 <= 0:
        raise ValueError("l2 must be > 0")
    x = (matrix.binarized() if binarize else matrix.matrix).tocsr()
    gram = (x.T @ x).tocsr()
    n_components, labels = connected_components(gram, directed=False)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_components)
    blocks = [c for c in np.split(order, np.cumsum(sizes)[:-1]) if c.size > 1]
    row_sizes = np.where(sizes > 1, sizes, 0)[labels]  # an item's row holds its component
    indptr = np.concatenate(([0], np.cumsum(row_sizes)))
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    for c in blocks:
        at = indptr[c][:, None] + np.arange(c.size)
        indices[at] = c
        data[at] = ease_weights(gram[c][:, c].toarray(), l2)
    weights = sp.csr_matrix((data, indices, indptr), shape=gram.shape)
    model = EaseModel(matrix, {"l2": l2, "binarize": binarize}, x, weights)
    model.train_ops = sum(c.size**3 for c in blocks)
    return model
