"""Meta-learning datasets and the two selector predictors, as plain arrays.

Every function takes row arrays: ``user_x`` holds one feature row per user and
``y`` the same users' (users, algorithms) NDCG rows, both in one order chosen by
the caller. Wide format: ``(user_x, y)`` as they are, for multi-output
regression. Long format: one row per (user, algorithm) pair, user-major and
algorithm-minor, whose features are the user's row followed by the algorithm's
encoded row and whose target is that pair's NDCG. The algorithm rows come from
``EncodedAlgoFeatures.aligned``, which looks each algorithm up by id, so both
formats and predictors are invariant to reordering the algorithm table. Both
predictors score a batch: user rows in, one (users, algorithms) matrix out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algo_features import AlgorithmFeatureTable
from .gbdt import BoostedEnsemble, MultiOutputGBDT
from .preprocess import OneHotMap, one_hot_apply, one_hot_fit, standardize_apply, standardize_fit


@dataclass
class EncodedAlgoFeatures:
    """Numeric algorithm features after scaling plus one-hot categorical block."""

    algorithms: list[str]
    feature_names: list[str]
    matrix: np.ndarray

    def row(self, algorithm: str) -> np.ndarray:
        return self.matrix[self.algorithms.index(algorithm)]

    def aligned(self, order: Sequence[str]) -> np.ndarray:
        return np.vstack([self.row(a) for a in order])


def encode_algo_features(table: AlgorithmFeatureTable) -> EncodedAlgoFeatures:
    """Scale numeric columns and one-hot the categorical ones, both fitted on the table.

    Fitting on the whole table is training-side: algorithm features never
    depend on evaluation users.
    """
    n = len(table.algorithms)
    numeric = (
        standardize_apply(standardize_fit(table.numeric), table.numeric)
        if table.numeric.shape[1]
        else np.empty((n, 0))
    )
    one_hot = one_hot_fit(table.categorical) if table.categorical_names else OneHotMap(())
    cats = one_hot_apply(one_hot, table.categorical) if one_hot.width else np.empty((n, 0))
    names = list(table.numeric_names) + one_hot.output_names(table.categorical_names)
    return EncodedAlgoFeatures(
        algorithms=list(table.algorithms),
        feature_names=names,
        matrix=np.hstack([numeric, cats]),
    )


def build_wide(user_x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per user; the targets are the users' full NDCG rows."""
    user_x = np.asarray(user_x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if user_x.shape[0] != y.shape[0]:
        raise ValueError(f"{user_x.shape[0]} user feature rows do not match {y.shape[0]} target rows")
    return user_x, y


def build_long(user_x: np.ndarray, y: np.ndarray, algo_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per (user, algorithm) pair; ``algo_x`` has one row per column of ``y``."""
    user_x, y = build_wide(user_x, y)
    if y.shape[1] != algo_x.shape[0]:
        raise ValueError(f"{y.shape[1]} target columns do not match {algo_x.shape[0]} algorithm rows")
    return _pair_rows(user_x, algo_x), y.reshape(-1)


def _pair_rows(user_x: np.ndarray, algo_x: np.ndarray) -> np.ndarray:
    """Each user row joined to each algorithm row, user-major and algorithm-minor."""
    n_users, n_algos = user_x.shape[0], algo_x.shape[0]
    return np.hstack([
        np.repeat(np.asarray(user_x, dtype=np.float64), n_algos, axis=0),
        np.tile(algo_x, (n_users, 1)),
    ])


def predict_scores_user_only(model: MultiOutputGBDT, user_rows: np.ndarray) -> np.ndarray:
    """Predicted NDCG, (users, algorithms), from user feature rows alone."""
    return model.predict(user_rows)


def predict_scores_user_algo(
    model: BoostedEnsemble,
    user_rows: np.ndarray,
    algo: EncodedAlgoFeatures,
    algorithms: Sequence[str],
) -> np.ndarray:
    """Predicted NDCG, (users, algorithms), from the pair rows ``build_long`` lays out."""
    return model.predict(_pair_rows(user_rows, algo.aligned(algorithms))).reshape(
        len(user_rows), len(algorithms)
    )
