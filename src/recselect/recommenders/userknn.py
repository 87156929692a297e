"""User-based k-nearest-neighbour collaborative filtering.

Cosine similarities between user rows are computed on the training matrix;
each user keeps the ``neighbors`` most similar other users. A candidate item's
score is the similarity-weighted sum of the neighbours' training ratings.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import RecommenderModel, TrainMatrix
from .itemknn import cosine_similarity_columns, truncate_columns


class UserKnnModel(RecommenderModel):
    algorithm_id = "userknn"

    def __init__(self, matrix: TrainMatrix, config: dict, sims: sp.csr_matrix, ratings: sp.csr_matrix):
        super().__init__(matrix, config)
        self.sims = sims
        self.ratings = ratings

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        return (self.sims[idx] @ self.ratings).toarray()


def train_userknn(matrix: TrainMatrix, neighbors: int = 50, binarize: bool = True) -> UserKnnModel:
    if neighbors < 1:
        raise ValueError("neighbors must be >= 1")
    x = matrix.binarized() if binarize else matrix.matrix
    # User-user similarity is the column similarity of the transposed matrix;
    # truncating its columns keeps each user's own top neighbours.
    sims = cosine_similarity_columns(x.T.tocsr())
    model = UserKnnModel(matrix, {"neighbors": neighbors, "binarize": binarize},
                         truncate_columns(sims, neighbors).T.tocsr(), x.tocsr())
    model.train_ops = sims.nnz  # similarities computed, before truncation
    return model
