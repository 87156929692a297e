"""Recommender portfolio: registry, training entry points, serialization.

Each available algorithm lives in its own source file; those files double as
the inputs to the static-analysis features. Algorithms that the portfolio
declares but cannot train (no maintained implementation) are marked
"unavailable" and are skipped with a recorded reason rather than silently
dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..data import Dataset
from ..errors import ConfigError
from . import biasedmf as _biasedmf
from . import bpr as _bpr
from . import ease as _ease
from . import implicitmf as _implicitmf
from . import itemknn as _itemknn
from . import pop as _pop
from . import userknn as _userknn
from .base import (
    RecommendationList,
    RecommenderModel,
    TrainMatrix,
    build_train_matrix,
    load_model,
    recommend_top_k,
    save_model,
    top_k,
)

_REGISTRY = {
    "pop": (_pop.train_pop, _pop),
    "itemknn": (_itemknn.train_itemknn, _itemknn),
    "userknn": (_userknn.train_userknn, _userknn),
    "biasedmf": (_biasedmf.train_biasedmf, _biasedmf),
    "implicitmf": (_implicitmf.train_implicitmf, _implicitmf),
    "bpr": (_bpr.train_bpr, _bpr),
    "ease": (_ease.train_ease, _ease),
}

UNAVAILABLE = {
    "fism": "no maintained implementation available",
    "line": "no maintained implementation available",
    "fpmc": "no maintained implementation available",
}

AVAILABLE_ALGORITHMS = tuple(_REGISTRY)


def algorithm_source_path(algorithm_id: str) -> str:
    """Path of the source file implementing one available algorithm."""
    if algorithm_id not in _REGISTRY:
        raise ConfigError(f"unknown algorithm {algorithm_id!r}")
    return _REGISTRY[algorithm_id][1].__file__


@dataclass
class PortfolioConfig:
    """Enabled algorithms with per-algorithm hyperparameter overrides."""

    algorithms: dict[str, dict] = field(default_factory=lambda: {a: {} for a in AVAILABLE_ALGORITHMS})
    unavailable: dict[str, str] = field(default_factory=lambda: dict(UNAVAILABLE))

    def __post_init__(self):
        for algo in self.algorithms:
            if algo not in _REGISTRY:
                raise ConfigError(
                    f"algorithm {algo!r} is not available; known: {sorted(_REGISTRY)}"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "PortfolioConfig":
        algorithms = {}
        unavailable = dict(UNAVAILABLE)
        for entry in raw.get("algorithms", []):
            if isinstance(entry, str):
                name, params, status = entry, {}, "enabled"
            else:
                name = entry["name"]
                params = dict(entry.get("params", {}))
                status = entry.get("status", "enabled")
            if status == "unavailable":
                unavailable[name] = entry.get("reason", "unavailable") if isinstance(entry, dict) else "unavailable"
                continue
            algorithms[name] = params
        if not algorithms:
            raise ConfigError("portfolio config enables no algorithms")
        return cls(algorithms=algorithms, unavailable=unavailable)

    def ordered_ids(self) -> list[str]:
        return list(self.algorithms)


def train_algorithm(algorithm_id: str, matrix: TrainMatrix, params: dict | None = None) -> RecommenderModel:
    """Train one algorithm by id; wall time lands on ``model.train_seconds``."""
    if algorithm_id not in _REGISTRY:
        raise ConfigError(f"unknown algorithm {algorithm_id!r}")
    train_fn = _REGISTRY[algorithm_id][0]
    started = time.perf_counter()
    model = train_fn(matrix, **(params or {}))
    model.train_seconds = time.perf_counter() - started
    return model


def train_portfolio(train: Dataset | TrainMatrix, config: PortfolioConfig | None = None) -> dict[str, RecommenderModel]:
    """Train every enabled algorithm on one training split, in config order."""
    if config is None:
        config = PortfolioConfig()
    matrix = train if isinstance(train, TrainMatrix) else build_train_matrix(train)
    return {a: train_algorithm(a, matrix, params) for a, params in config.algorithms.items()}


__all__ = [
    "AVAILABLE_ALGORITHMS",
    "PortfolioConfig",
    "RecommendationList",
    "RecommenderModel",
    "TrainMatrix",
    "UNAVAILABLE",
    "algorithm_source_path",
    "build_train_matrix",
    "load_model",
    "recommend_top_k",
    "save_model",
    "top_k",
    "train_algorithm",
    "train_portfolio",
]
