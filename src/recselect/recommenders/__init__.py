"""Recommender portfolio: registry, training entry points, serialization.

Each available algorithm lives in its own source file; those files double as
the inputs to the static-analysis features. Algorithms that the portfolio
declares but cannot train (no maintained implementation) are marked
"unavailable" and are skipped with a recorded reason rather than silently
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import check_keys, check_parameters, expect, keyword_defaults
from ..data import Dataset
from ..errors import ConfigError
from ..pool import job_environment
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
    stored_values,
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


def train_parameters(algorithm_id: str) -> dict[str, object]:
    """The keyword names of an algorithm's trainer other than ``matrix``, with their defaults."""
    if algorithm_id not in _REGISTRY:
        raise ConfigError(f"algorithm {algorithm_id!r} is not available; known: {sorted(_REGISTRY)}")
    return keyword_defaults(_REGISTRY[algorithm_id][0])


@dataclass
class PortfolioConfig:
    """Enabled algorithms with per-algorithm hyperparameter overrides."""

    algorithms: dict[str, dict] = field(default_factory=lambda: {a: {} for a in AVAILABLE_ALGORITHMS})
    unavailable: dict[str, str] = field(default_factory=lambda: dict(UNAVAILABLE))

    def __post_init__(self):
        self.algorithms = {
            algo: check_parameters(f"algorithm {algo!r}", params, train_parameters(algo))
            for algo, params in self.algorithms.items()
        }

    @classmethod
    def from_dict(cls, raw) -> "PortfolioConfig":
        """Parse ``{"algorithms": [...]}``, each entry a name or a ``name``/``params``/``status``/``reason`` object."""
        expect("portfolio", raw, lambda r: isinstance(r, dict), "an object")
        check_keys("portfolio", raw, ("algorithms",))
        entries = expect("portfolio 'algorithms'", raw.get("algorithms", []), lambda e: isinstance(e, list), "a list")
        algorithms = {}
        unavailable = dict(UNAVAILABLE)
        named = set()
        for entry in entries:
            if isinstance(entry, str):
                entry = {"name": entry}
            expect("portfolio entry", entry, lambda e: isinstance(e, dict) and isinstance(e.get("name"), str),
                   "a name or an object with a string 'name'")
            name = entry["name"]
            status = expect(f"portfolio entry {name!r} status", entry.get("status", "enabled"),
                            ("enabled", "unavailable").__contains__, "'enabled' or 'unavailable'")
            # An enabled entry takes params, an unavailable one the reason it is unavailable.
            check_keys(f"{status} portfolio entry {name!r}", entry,
                       ("name", "status", "params" if status == "enabled" else "reason"))
            if name in named:
                raise ConfigError(f"portfolio names {name!r} in more than one entry")
            named.add(name)
            if status == "enabled":
                algorithms[name] = entry.get("params", {})
            else:
                unavailable[name] = entry.get("reason", "unavailable")
        if not algorithms:
            raise ConfigError("portfolio config enables no algorithms")
        return cls(algorithms=algorithms, unavailable=unavailable)

    def ordered_ids(self) -> list[str]:
        return list(self.algorithms)


def train_algorithm(algorithm_id: str, matrix: TrainMatrix, params: dict | None = None) -> RecommenderModel:
    """Train one algorithm by id; its work count lands on ``model.train_ops``."""
    if algorithm_id not in _REGISTRY:
        raise ConfigError(f"unknown algorithm {algorithm_id!r}")
    return _REGISTRY[algorithm_id][0](matrix, **(params or {}))


def train_portfolio(train: Dataset | TrainMatrix, config: PortfolioConfig | None = None) -> dict[str, RecommenderModel]:
    """Train every enabled algorithm on one training split, in config order, in the job environment."""
    job_environment()  # one OpenBLAS thread: the bits a command's jobs give
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
    "stored_values",
    "top_k",
    "train_algorithm",
    "train_parameters",
    "train_portfolio",
]
