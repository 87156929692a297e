"""Recommender portfolio: registry, training entry points, serialization.

Each available algorithm lives in its own source file; those files double as
the inputs to the static-analysis features. Algorithms that the portfolio
declares but cannot train (no maintained implementation) are marked
"unavailable" and are skipped with a recorded reason rather than silently
dropped.
"""

from __future__ import annotations

import inspect
import math
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


def keyword_defaults(fn) -> dict[str, object]:
    """The parameters of ``fn`` that have a default, mapped to that default."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def train_parameters(algorithm_id: str) -> dict[str, object]:
    """The keyword names of an algorithm's trainer other than ``matrix``, with their defaults."""
    if algorithm_id not in _REGISTRY:
        raise ConfigError(f"algorithm {algorithm_id!r} is not available; known: {sorted(_REGISTRY)}")
    return keyword_defaults(_REGISTRY[algorithm_id][0])


def check_parameters(owner: str, params, defaults: dict[str, object]) -> dict:
    """A copy of ``params`` once each name is in ``defaults`` and each value has its default's type.

    An int also passes where the default is a float, and a float must be finite.
    """
    if not isinstance(params, dict):
        raise ConfigError(f"{owner} params must be an object, found {params!r}")
    for name, value in params.items():
        if name not in defaults:
            raise ConfigError(f"{owner} takes no parameter {name!r}; known: {sorted(defaults)}")
        kind = type(defaults[name])
        if type(value) not in ((int, float) if kind is float else (kind,)) or not math.isfinite(value):
            raise ConfigError(f"{owner} parameter {name!r} must be of type {kind.__name__}, found {value!r}")
    return dict(params)


def check_keys(owner: str, entry: dict, known: tuple[str, ...]) -> None:
    """ConfigError naming the first key of ``entry`` that is not in ``known``."""
    for key in entry:
        if key not in known:
            raise ConfigError(f"{owner} has unknown key {key!r}; known: {list(known)}")


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
        if not isinstance(raw, dict):
            raise ConfigError(f"portfolio must be an object, found {raw!r}")
        check_keys("portfolio", raw, ("algorithms",))
        entries = raw.get("algorithms", [])
        if not isinstance(entries, list):
            raise ConfigError(f"portfolio 'algorithms' must be a list, found {entries!r}")
        algorithms = {}
        unavailable = dict(UNAVAILABLE)
        named = set()
        for entry in entries:
            if isinstance(entry, str):
                entry = {"name": entry}
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise ConfigError(
                    f"portfolio entry must be a name or an object with a string 'name', found {entry!r}"
                )
            name, status = entry["name"], entry.get("status", "enabled")
            check_keys(f"portfolio entry {name!r}", entry, ("name", "params", "status", "reason"))
            if name in named:
                raise ConfigError(f"portfolio names {name!r} in more than one entry")
            named.add(name)
            if status == "unavailable":
                if "params" in entry:
                    raise ConfigError(f"portfolio entry {name!r} is unavailable and takes no 'params'")
                unavailable[name] = entry.get("reason", "unavailable")
            elif status == "enabled":
                if "reason" in entry:
                    raise ConfigError(f"portfolio entry {name!r} is enabled and takes no 'reason'")
                algorithms[name] = entry.get("params", {})
            else:
                raise ConfigError(
                    f"portfolio entry {name!r} has status {status!r}; expected 'enabled' or 'unavailable'"
                )
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
    "check_parameters",
    "keyword_defaults",
    "load_model",
    "recommend_top_k",
    "save_model",
    "stored_values",
    "top_k",
    "train_algorithm",
    "train_parameters",
    "train_portfolio",
]
