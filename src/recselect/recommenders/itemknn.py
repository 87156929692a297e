"""Item-based k-nearest-neighbour collaborative filtering.

Item-item cosine similarities are computed on training columns, the diagonal
is zeroed, and each candidate item keeps only its ``neighbors`` most similar
items. A user's score for a candidate is the sum of retained similarities
between the candidate and the items in the user's training history (binary
membership, so history ratings do not reweight the sum).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import RecommenderModel, TrainMatrix, top_k


def cosine_similarity_columns(x: sp.csr_matrix) -> sp.csr_matrix:
    """Pairwise cosine similarity between columns; zero-norm columns give 0."""
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=0)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    normalized = x @ sp.diags(inv)
    sims = (normalized.T @ normalized).tocsc()
    sims.setdiag(0.0)
    sims.eliminate_zeros()
    return sims


_COLUMN_BLOCK = 256  # columns ranked per top_k call


def truncate_columns(sims: sp.spmatrix, neighbors: int) -> sp.csc_matrix:
    """Keep the top ``neighbors`` entries of each column, ranked by :func:`top_k`.

    Entries tie under the snapped rule of ``top_k`` and ties keep the lower
    row index. Columns are ranked in blocks of similar length, each block as
    the rows of a zero-padded (columns, longest column) array of its stored
    entries, so a few dense columns do not widen every block.
    """
    sims = sp.csc_matrix(sims, copy=True)
    sims.sort_indices()
    counts = np.diff(sims.indptr)
    long_cols = np.flatnonzero(counts > neighbors)
    long_cols = long_cols[np.argsort(counts[long_cols], kind="stable")]
    keep = np.ones(sims.nnz, dtype=bool)
    for start in range(0, long_cols.size, _COLUMN_BLOCK):
        block = long_cols[start:start + _COLUMN_BLOCK]
        lengths = counts[block]
        # Stored entry i of a column sits at position i of its row, so ties by position are ties by row.
        rows = np.repeat(np.arange(block.size), lengths)
        positions = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        entries = np.repeat(sims.indptr[block], lengths) + positions
        padded = np.zeros((block.size, lengths.max()))
        padded[rows, positions] = sims.data[entries]
        pad = np.ones(padded.shape, dtype=bool)
        pad[rows, positions] = False
        chosen = top_k(padded, neighbors, exclude=pad)  # no -1: every column has > neighbors entries
        keep[entries] = False
        keep[(sims.indptr[block, None] + chosen).ravel()] = True
    indptr = np.concatenate([[0], np.cumsum(np.minimum(counts, neighbors))])
    return sp.csc_matrix((sims.data[keep], sims.indices[keep], indptr), shape=sims.shape)


class ItemKnnModel(RecommenderModel):
    algorithm_id = "itemknn"

    def __init__(self, matrix: TrainMatrix, config: dict, sims: sp.csr_matrix, history: sp.csr_matrix):
        super().__init__(matrix, config)
        self.sims = sims
        self.history = history  # binary membership of each user's training items

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return (self.history[idx] @ self.sims).toarray()


def train_itemknn(matrix: TrainMatrix, neighbors: int = 50, binarize: bool = True) -> ItemKnnModel:
    if neighbors < 1:
        raise ValueError("neighbors must be >= 1")
    history = matrix.binarized()
    sims = cosine_similarity_columns(history if binarize else matrix.matrix)
    model = ItemKnnModel(matrix, {"neighbors": neighbors, "binarize": binarize},
                         truncate_columns(sims, neighbors).tocsr(), history)
    model.train_ops = sims.nnz  # similarities computed, before truncation
    return model
