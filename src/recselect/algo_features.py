"""Algorithm meta-features: static code metrics, AST structure, performance
landmarks on probe datasets, and conceptual tags.

Numeric columns belong to one of four categories (Code, AST, Performance,
Conceptual); the two categorical columns (family, learning paradigm) are
Conceptual and are one-hot encoded downstream. Category membership is a pure
function of the column name so tables survive CSV round trips.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .astgraph import AST_METRIC_NAMES, AstGraphMetrics, analyze_ast_file
from .codemetrics import CODE_METRIC_NAMES, CodeMetrics, analyze_file
from .config import expect, is_boolean
from .data import SplitPair, open_table, read_header, read_id_rows
from .errors import ConfigError, RecselectError
from .ground_truth import evaluable_users, evaluate_portfolio
from .pool import map_jobs
from .recommenders import algorithm_source_path, build_train_matrix, stored_values, train_algorithm

logger = logging.getLogger(__name__)

FEATURE_CATEGORIES = ("Code", "AST", "Performance", "Conceptual")

FAMILY_VOCAB = ("Popularity", "Neighborhood", "Matrix Factorization", "Autoencoder")
PARADIGM_VOCAB = ("Counting", "Item-based", "User-based", "Pointwise", "Pairwise", "Closed-form")

DEFAULT_CONCEPTUAL = {
    "pop": ("Popularity", "Counting", True),
    "itemknn": ("Neighborhood", "Item-based", False),
    "userknn": ("Neighborhood", "User-based", False),
    "biasedmf": ("Matrix Factorization", "Pointwise", False),
    "implicitmf": ("Matrix Factorization", "Pointwise", False),
    "bpr": ("Matrix Factorization", "Pairwise", False),
    "ease": ("Autoencoder", "Closed-form", False),
}

CATEGORICAL_NAMES = ("family", "learning_paradigm")


@dataclass(frozen=True)
class ConceptualTags:
    family: str
    learning_paradigm: str
    handles_cold_start: bool

    def __post_init__(self):
        expect("conceptual family", self.family, FAMILY_VOCAB.__contains__, f"one of {FAMILY_VOCAB}")
        expect("learning paradigm", self.learning_paradigm, PARADIGM_VOCAB.__contains__, f"one of {PARADIGM_VOCAB}")


def load_conceptual_map(
    algorithms: Sequence[str], source: Mapping[str, Sequence] | None = None
) -> dict[str, ConceptualTags]:
    """Tags for every requested algorithm; missing entries are a config error."""
    raw = expect("conceptual map", DEFAULT_CONCEPTUAL if source is None else source,
                 lambda m: isinstance(m, Mapping), "an object")
    tags = {}
    for algo in algorithms:
        if algo not in raw:
            raise ConfigError(f"conceptual map has no entry for algorithm {algo!r}")
        family, paradigm, cold = expect(f"conceptual map entry {algo!r}", raw[algo],
                                        lambda e: isinstance(e, (list, tuple)) and len(e) == 3,
                                        "[family, paradigm, cold start]")
        expect(f"conceptual map entry {algo!r} cold start", cold, is_boolean, "true or false")
        tags[algo] = ConceptualTags(family, paradigm, cold)
    return tags


@dataclass(frozen=True)
class ProbeResult:
    """Landmark outcome of one algorithm on one probe dataset.

    ``train_ops`` is the model's ``train_ops``; ``pred_ops`` is its
    ``stored_values`` times the probe's scored users. Both are counts, so a
    landmark does not depend on the machine or its load. A failed landmark is
    zeroed and names its error.
    """

    perf: float
    train_ops: int
    pred_ops: int
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def landmark_portfolio(
    probes: Mapping[str, SplitPair],
    algorithms: Mapping[str, dict],
    k: int = 10,
) -> dict[str, dict[str, ProbeResult]]:
    """Train and evaluate every algorithm once on every probe split.

    Each (probe, algorithm) pair is one ``map_jobs`` job. A training or
    evaluation failure (a ``RecselectError`` such as ``DivergenceError``) yields
    a zeroed, flagged result instead of aborting the sweep, and is logged here;
    any other error, such as the ``ValueError`` of an out-of-range parameter,
    propagates.
    """
    scored = {}
    for probe_name, split in probes.items():
        matrix = build_train_matrix(split.train)
        scored[probe_name] = (matrix, evaluable_users(matrix, split.test))

    def landmark(job: tuple[str, str]) -> ProbeResult:
        probe_name, algo = job
        matrix, users = scored[probe_name]
        try:
            model = train_algorithm(algo, matrix, algorithms[algo])
            pm = evaluate_portfolio(matrix, users, {algo: model}, k=k)
        except RecselectError as exc:
            return ProbeResult(0.0, 0, 0, error=f"{type(exc).__name__}: {exc}")
        return ProbeResult(float(pm.column_means()[0]), model.train_ops, stored_values(model) * len(pm.users))

    jobs = [(probe_name, algo) for probe_name in probes for algo in algorithms]
    results: dict[str, dict[str, ProbeResult]] = {a: {} for a in algorithms}
    for (probe_name, algo), result in zip(jobs, map_jobs(landmark, jobs)):
        if result.failed:
            logger.warning("landmark failed: algorithm=%s probe=%s: %s", algo, probe_name, result.error)
        results[algo][probe_name] = result
    return results


def group_for_column(name: str) -> str:
    """Category of a numeric or categorical feature column, by name."""
    if name in CODE_METRIC_NAMES:
        return "Code"
    if name in AST_METRIC_NAMES:
        return "AST"
    if name.startswith(("perf_on_", "traintime_on_", "predtime_on_", "landmark_failed_on_")):
        return "Performance"
    if name in CATEGORICAL_NAMES or name == "handles_cold_start":
        return "Conceptual"
    raise ConfigError(f"column {name!r} belongs to no known feature category")


@dataclass
class AlgorithmFeatureTable:
    """Algorithms x features, numeric block plus two categorical columns."""

    algorithms: list[str]
    numeric_names: list[str]
    numeric: np.ndarray
    categorical_names: list[str]
    categorical: list[tuple[str, ...]]
    numeric_groups: list[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.numeric = np.asarray(self.numeric, dtype=np.float64)
        if self.numeric.shape != (len(self.algorithms), len(self.numeric_names)):
            raise ValueError("numeric block shape does not match names")
        if len(self.categorical) != len(self.algorithms):
            raise ValueError("categorical rows do not match algorithms")
        self.numeric_groups = [group_for_column(n) for n in self.numeric_names]

    def row_index(self, algorithm: str) -> int:
        return self.algorithms.index(algorithm)

    def filter_categories(self, categories: set[str]) -> "AlgorithmFeatureTable":
        """Keep only columns whose category is in ``categories``."""
        unknown = categories - set(FEATURE_CATEGORIES)
        if unknown:
            raise ConfigError(f"unknown feature categories: {sorted(unknown)}")
        keep = [i for i, g in enumerate(self.numeric_groups) if g in categories]
        cat_names = list(self.categorical_names) if "Conceptual" in categories else []
        cats = (
            [tuple(row) for row in self.categorical]
            if "Conceptual" in categories
            else [() for _ in self.algorithms]
        )
        return AlgorithmFeatureTable(
            algorithms=list(self.algorithms),
            numeric_names=[self.numeric_names[i] for i in keep],
            numeric=self.numeric[:, keep],
            categorical_names=cat_names,
            categorical=cats,
        )

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm"] + self.numeric_names + self.categorical_names)
            for i, algo in enumerate(self.algorithms):
                row = [algo] + [repr(float(v)) for v in self.numeric[i]] + list(self.categorical[i])
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "AlgorithmFeatureTable":
        """Read a ``to_csv`` file.

        A wrong header, no rows, ragged rows, repeated algorithms and bad numbers are SchemaErrors.
        """
        with open_table(path) as reader:
            header = read_header(path, reader, "algorithm")
            names = header[1:]
            cat_start = len(names)
            for i, name in enumerate(names):
                if name in CATEGORICAL_NAMES:
                    cat_start = i
                    break
            numeric_names, cat_names = names[:cat_start], names[cat_start:]
            algorithms, numeric, cats = read_id_rows(
                path, reader, len(header), len(numeric_names), kind="algorithm"
            )
        return cls(algorithms, numeric_names, numeric, cat_names, cats)


def assemble_algorithm_features(
    code: Mapping[str, CodeMetrics],
    ast_metrics: Mapping[str, AstGraphMetrics],
    landmarks: Mapping[str, Mapping[str, ProbeResult]],
    tags: Mapping[str, ConceptualTags],
    algorithms: Sequence[str],
    probe_names: Sequence[str],
) -> AlgorithmFeatureTable:
    """Join the four feature groups into one table, rows in portfolio order."""
    for algo in algorithms:
        for part, label in ((code, "code metrics"), (ast_metrics, "ast metrics"),
                            (landmarks, "landmarks"), (tags, "conceptual tags")):
            if algo not in part:
                raise ConfigError(f"missing {label} for algorithm {algo!r}")

    any_failure = any(
        landmarks[a][p].failed for a in algorithms for p in probe_names if p in landmarks[a]
    )
    numeric_names = list(CODE_METRIC_NAMES) + list(AST_METRIC_NAMES)
    for probe in probe_names:
        numeric_names += [f"perf_on_{probe}", f"traintime_on_{probe}", f"predtime_on_{probe}"]
        if any_failure:
            numeric_names.append(f"landmark_failed_on_{probe}")
    numeric_names.append("handles_cold_start")

    rows = []
    for algo in algorithms:
        row = [float(getattr(code[algo], n)) for n in CODE_METRIC_NAMES]
        row += [float(getattr(ast_metrics[algo], n)) for n in AST_METRIC_NAMES]
        for probe in probe_names:
            if probe not in landmarks[algo]:
                raise ConfigError(f"missing landmark for algorithm {algo!r} on probe {probe!r}")
            res = landmarks[algo][probe]
            row += [res.perf, res.train_ops, res.pred_ops]
            if any_failure:
                row.append(1.0 if res.failed else 0.0)
        row.append(1.0 if tags[algo].handles_cold_start else 0.0)
        rows.append(row)

    categorical = [(tags[a].family, tags[a].learning_paradigm) for a in algorithms]
    return AlgorithmFeatureTable(
        algorithms=list(algorithms),
        numeric_names=numeric_names,
        numeric=np.asarray(rows),
        categorical_names=list(CATEGORICAL_NAMES),
        categorical=categorical,
    )


def static_metrics_for_portfolio(algorithms: Sequence[str]):
    """Code and AST metrics of each algorithm's own source file."""
    code = {a: analyze_file(algorithm_source_path(a)) for a in algorithms}
    ast_metrics = {a: analyze_ast_file(algorithm_source_path(a)) for a in algorithms}
    return code, ast_metrics
