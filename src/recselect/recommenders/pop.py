"""Popularity baseline: rank items by training interaction count."""

from __future__ import annotations

import numpy as np

from .base import RecommenderModel, TrainMatrix


class PopularityModel(RecommenderModel):
    algorithm_id = "pop"

    def __init__(self, matrix: TrainMatrix, config: dict, item_scores: np.ndarray):
        super().__init__(matrix, config)
        self.item_scores = item_scores

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        # The ranking is identical for every known user.
        return np.tile(self.item_scores, (len(idx), 1))


def train_pop(matrix: TrainMatrix) -> PopularityModel:
    """Count interactions per item; counts are the scores for every user."""
    model = PopularityModel(matrix, config={}, item_scores=matrix.item_counts.astype(np.float64))
    model.train_ops = matrix.matrix.nnz  # one count per stored rating
    return model
