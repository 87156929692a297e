"""EASE: closed-form item-item linear autoencoder with a zero diagonal.

With Gram matrix G = X^T X + l2 * I and P = G^{-1}, the item weight matrix is

    B = I - P * diag(1 / diag(P)),   diag(B) = 0,

the exact solution of min |X - XB|_F^2 + l2 |B|_F^2 s.t. diag(B) = 0.
User scores are the corresponding row of X B.

Two items interact in G only when some user holds both, so under a
permutation that groups the connected components of the item co-occurrence
graph, G, P and B are block-diagonal. Training therefore solves one block per
component (by Cholesky), and B is stored as those blocks alone: one flat
array ``b`` holds each multi-item component's k x k weights back to back,
beside the component's item indices. B is zero between components and for
single-item components, which is exact, not an approximation, so no
n_items x n_items array is ever built. Scoring fills each block's columns
for the users who hold its items, from their entries in those items; the
terms it leaves out are exact zeros, so the scores are bitwise those of the
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
    """B as blocks: ``b`` is their flat storage, ``items`` their item indices."""

    algorithm_id = "ease"

    def __init__(self, matrix, config, x, b, items):
        super().__init__(matrix, config)
        self.x = x
        self.b = b
        self.items = items

    def blocks(self):
        """Each block's item indices and its k x k weights, a view into ``b``."""
        end = 0
        for items in self.items:
            start, end = end, end + items.size**2
            yield items, self.b[start:end].reshape(items.size, items.size)

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        """Each block scores only the rows holding one of its items, from those entries alone.

        A row keeps its entries' stored order within a block, so ``csr @ dense``
        adds the same terms in the same order as the history times the dense B;
        the terms left out multiply exact zeros.
        """
        rows = self.x[idx]
        scores = np.zeros((rows.shape[0], self.matrix.n_items))
        block = np.full(self.matrix.n_items, len(self.items))  # single-item components: no block
        column = np.zeros(self.matrix.n_items, dtype=np.int64)
        for n, items in enumerate(self.items):
            block[items], column[items] = n, np.arange(items.size)
        entry_block = block[rows.indices]
        entry_row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
        by_block = np.argsort(entry_block, kind="stable")
        ends = np.cumsum(np.bincount(entry_block, minlength=len(self.items) + 1))[:-1]
        for (items, weights), entries in zip(self.blocks(), np.split(by_block, ends)):
            users, counts = np.unique(entry_row[entries], return_counts=True)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            held = sp.csr_matrix((rows.data[entries], column[rows.indices[entries]], indptr),
                                 shape=(users.size, items.size))
            scores[np.ix_(users, items)] = held @ weights
        return scores


def train_ease(matrix: TrainMatrix, l2: float = 10.0, binarize: bool = True) -> EaseModel:
    """One ``ease_weights`` block per multi-item co-occurrence component."""
    if l2 <= 0:
        raise ValueError("l2 must be > 0")
    x = (matrix.binarized() if binarize else matrix.matrix).tocsr()
    gram = (x.T @ x).tocsr()
    n_components, labels = connected_components(gram, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=n_components))[:-1]
    items = [c for c in np.split(order, bounds) if c.size > 1]
    b = np.empty(sum(c.size**2 for c in items))
    model = EaseModel(matrix, {"l2": l2, "binarize": binarize}, x, b, items)
    for c, weights in model.blocks():
        weights[...] = ease_weights(gram[c][:, c].toarray(), l2)
    model.train_ops = sum(c.size**3 for c in items)
    return model
