"""Meta-learning dataset construction and the two selector predictors.

Wide format: one row per user, one target column per algorithm (multi-output
regression). Long format: one row per (user, algorithm) pair whose features
concatenate the user's features with the algorithm's encoded features and
whose target is that pair's NDCG. Long rows are user-major, algorithm-minor.
Algorithm feature rows are addressed by id, so the long format and the
user+algorithm predictor are invariant to reordering the algorithm table.
Both predictors score a batch: user rows in, one (users, algorithms) matrix out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algo_features import AlgorithmFeatureTable
from ..ground_truth import PerformanceMatrix
from ..user_features import UserFeatureTable
from .gbdt import BoostedEnsemble, MultiOutputGBDT
from .preprocess import (
    OneHotMap,
    ScalerParams,
    one_hot_apply,
    one_hot_fit,
    standardize_apply,
    standardize_fit,
)


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


def encode_algo_features(
    table: AlgorithmFeatureTable,
    scaler: ScalerParams | None = None,
    one_hot: OneHotMap | None = None,
) -> EncodedAlgoFeatures:
    """Scale numeric columns and one-hot the categorical ones.

    Fitted parameters may be passed in (e.g. reused across folds); by default
    both are fitted on the table itself, which is training-side data because
    algorithm features never depend on evaluation users.
    """
    if scaler is None:
        scaler = standardize_fit(table.numeric) if table.numeric.shape[1] else None
    if one_hot is None:
        one_hot = one_hot_fit(table.categorical) if table.categorical_names else OneHotMap(())
    numeric = (
        standardize_apply(scaler, table.numeric)
        if scaler is not None
        else np.empty((len(table.algorithms), 0))
    )
    cats = one_hot_apply(one_hot, table.categorical) if one_hot.width else np.empty((len(table.algorithms), 0))
    names = list(table.numeric_names) + one_hot.output_names(table.categorical_names)
    return EncodedAlgoFeatures(
        algorithms=list(table.algorithms),
        feature_names=names,
        matrix=np.hstack([numeric, cats]),
    )


@dataclass
class WideMetaDataset:
    """One row per user; targets are the full per-user NDCG vectors."""

    users: list[str]
    algorithms: list[str]
    x: np.ndarray
    y: np.ndarray
    feature_names: list[str]


@dataclass
class LongMetaDataset:
    """One row per (user, algorithm) pair, user-major then algorithm-minor."""

    pairs: list[tuple[str, str]]
    users: list[str]
    algorithms: list[str]
    x: np.ndarray
    y: np.ndarray
    feature_names: list[str]


def build_wide(pm: PerformanceMatrix, user_x: np.ndarray, users: Sequence[str], feature_names: Sequence[str]) -> WideMetaDataset:
    if user_x.shape[0] != len(users):
        raise ValueError("user feature rows do not match user list")
    y = np.vstack([pm.row(u) for u in users])
    return WideMetaDataset(list(users), list(pm.algorithms), np.asarray(user_x), y, list(feature_names))


def build_long(
    pm: PerformanceMatrix,
    user_x: np.ndarray,
    users: Sequence[str],
    user_feature_names: Sequence[str],
    algo: EncodedAlgoFeatures,
) -> LongMetaDataset:
    """Cross every user row with every algorithm row, keyed by algorithm id."""
    if user_x.shape[0] != len(users):
        raise ValueError("user feature rows do not match user list")
    algo_block = algo.aligned(pm.algorithms)
    n_algos = len(pm.algorithms)
    x = np.hstack([
        np.repeat(np.asarray(user_x, dtype=np.float64), n_algos, axis=0),
        np.tile(algo_block, (len(users), 1)),
    ])
    y = pm.values[[pm.user_pos[u] for u in users]].reshape(-1)
    pairs = [(user, algorithm) for user in users for algorithm in pm.algorithms]
    names = list(user_feature_names) + list(algo.feature_names)
    return LongMetaDataset(pairs, list(users), list(pm.algorithms), x, y, names)


def predict_scores_user_only(model: MultiOutputGBDT, user_rows: np.ndarray) -> np.ndarray:
    """Predicted NDCG, (users, algorithms), from user feature rows alone."""
    return model.predict(user_rows)


def predict_scores_user_algo(
    model: BoostedEnsemble,
    user_rows: np.ndarray,
    algo: EncodedAlgoFeatures,
    algorithms: Sequence[str],
) -> np.ndarray:
    """Predicted NDCG, (users, algorithms), from concatenated pair features.

    The pair rows are user-major, algorithm-minor, as ``build_long`` lays them out.
    """
    block = algo.aligned(algorithms)
    n_users = user_rows.shape[0]
    x = np.hstack([np.repeat(user_rows, block.shape[0], axis=0), np.tile(block, (n_users, 1))])
    return model.predict(x).reshape(n_users, block.shape[0])

