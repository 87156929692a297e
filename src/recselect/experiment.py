"""Nested cross-validation of per-user algorithm selection.

Users are addressed by their row position in the performance matrix
throughout: folds, meta-datasets and score matrices are all indexed by row.
Outer folds partition the rows; per fold, the user features are standardized
with the training rows' statistics, and random-search HPO (inner folds of the
training rows, validation MSE of predicted vs. true per-algorithm NDCG) picks
the meta-learner configuration. It is refit on the outer training rows and
scores the held-out rows. A run's one record is an out-of-fold (users,
algorithms) score matrix per method: the refits' rows for the model, the
tiled column means for SBA and the true rows for VBA. Every fold metric is
one function of the truth, a score matrix and the folds' test rows: select
each row's best-ranked algorithm, look up its realized NDCG, and aggregate.

Every fit runs in one kind of job, ``_fit_and_score``: fit a list of
candidates on one row set and return each one's scores on another. Its fits
share the row set's meta-dataset, and those with one ``min_samples_leaf``
share one GBDT presort. Random-search candidates are independent draws
(Bergstra & Bengio, JMLR 2012), and every seed derives from the run seed, the
outer fold, the candidate and the inner fold alone. So one ``pool.map_jobs``
call runs a job per (outer fold, inner fold) pair, carrying the fold's
candidates. The calling process turns their validation scores into MSEs and
picks each fold's winner, and a second call runs a job per outer fold,
carrying its winner. Results are merged in job order, so every report is the
same whatever the worker count.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import stdtrit

from .algo_features import FEATURE_CATEGORIES, AlgorithmFeatureTable
from .config import check_keys, check_parameters, expect, is_integer, is_number
from .errors import ConfigError, SearchError
from .ground_truth import PerformanceMatrix, gap_closed, single_best_algorithm
from .meta import (
    GBDTParams,
    Presort,
    build_long,
    build_wide,
    encode_algo_features,
    fit_gbdt,
    fit_multi_output_gbdt,
    predict_scores_user_algo,
    predict_scores_user_only,
    standardize_apply,
    standardize_fit,
)
from .pool import map_jobs
from .recommenders import top_k
from .user_features import UserFeatureTable

logger = logging.getLogger(__name__)

MODES = ("user_only", "user_algo")
PREDICTORS = ("model", "oracle", "single_best")
CI_QUANTILE = 0.975  # two-sided 95 % intervals


def derive_seed(*parts) -> int:
    """Stable 63-bit sub-seed from string-able parts (never clock-dependent)."""
    digest = hashlib.blake2b("/".join(str(p) for p in parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def make_user_folds(n_users: int, n_folds: int, seed: int) -> list[np.ndarray]:
    """Row positions of ``n_users`` users, shuffled with ``seed`` and dealt round-robin.

    Fold ``f`` is ``order[f::n_folds]`` of the seeded permutation, so fold sizes
    differ by at most one and each fold keeps the dealing order.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if n_folds > n_users:
        raise ValueError(f"cannot make {n_folds} folds from {n_users} users")
    order = np.random.default_rng(seed).permutation(n_users)
    return [order[f::n_folds] for f in range(n_folds)]


def assert_user_disjoint(folds: Sequence[Sequence]) -> None:
    seen: set = set()
    for fold in folds:
        for user in np.asarray(fold).tolist():
            if user in seen:
                raise AssertionError(f"user {user!r} appears in more than one fold")
            seen.add(user)


def _range_extremes(name: str, spec: dict) -> list:
    """The least and the greatest value a ``low``..``high`` range can draw."""
    kind, low, high = spec["type"], spec.get("low"), spec.get("high")
    is_bound = (lambda v: is_integer(v) and -2**63 <= v < 2**63 - 1) if kind == "int_range" else is_number
    if not (is_bound(low) and is_bound(high) and low <= high and (kind != "log_uniform" or low > 0)):
        raise ConfigError(
            f"{kind} distribution of {name!r} needs {'int64' if kind == 'int_range' else 'finite'} "
            f"bounds low <= high{' and low > 0' if kind == 'log_uniform' else ''}, found {low!r} and {high!r}"
        )
    if kind == "int_range":
        return [low, high]
    # A draw is low + (high - low) * u for a u in [0, 1), on a log scale for log_uniform. Rounding can
    # carry it past ``high``, but never past its value at u = 1.
    forward, back = (np.log, np.exp) if kind == "log_uniform" else (float, float)
    start, end = forward(low), forward(high)
    return [float(back(start)), float(back(start + (end - start)))]


# Each distribution type: (name, spec) -> the values its draws lie between or are one of, and one draw.
DISTRIBUTIONS = {
    "int_range": (_range_extremes, lambda rng, s: int(rng.integers(s["low"], s["high"] + 1))),
    "uniform": (_range_extremes, lambda rng, s: float(rng.uniform(s["low"], s["high"]))),
    "log_uniform": (_range_extremes, lambda rng, s: float(np.exp(rng.uniform(np.log(s["low"]), np.log(s["high"]))))),
    "choice": (lambda name, s: expect(f"choice distribution of {name!r} values", s.get("values"),
                                      lambda v: isinstance(v, list) and v != [], "a non-empty list"),
               lambda rng, s: s["values"][int(rng.integers(len(s["values"])))]),
}
_TUNABLE = {f.name: f.default for f in fields(GBDTParams) if f.name != "seed"}


def _distribution(name: str, spec: dict) -> tuple:
    if spec.get("type") not in DISTRIBUTIONS:
        raise ConfigError(f"unknown distribution type {spec.get('type')!r} for {name!r}")
    return DISTRIBUTIONS[spec["type"]]


@dataclass(frozen=True)
class SearchSpace:
    """Random-search distributions over GBDT hyperparameters."""

    n_iter: int = 50
    inner_folds: int = 3
    distributions: Mapping[str, Mapping] = field(
        default_factory=lambda: {
            "num_trees": {"type": "int_range", "low": 50, "high": 400},
            "learning_rate": {"type": "log_uniform", "low": 0.01, "high": 0.3},
            "max_depth": {"type": "int_range", "low": 2, "high": 8},
            "min_samples_leaf": {"type": "int_range", "low": 1, "high": 50},
            "subsample": {"type": "uniform", "low": 0.6, "high": 1.0},
        }
    )

    def sample(self, rng: np.random.Generator) -> dict:
        # insertion order fixes the draw order
        return {name: _distribution(name, spec)[1](rng, spec) for name, spec in self.distributions.items()}

    @classmethod
    def from_dict(cls, raw: dict) -> "SearchSpace":
        """A validated space: every bad count, name, type or bound is a ConfigError.

        Each distribution is checked by what it can draw: GBDT params are
        validated at both ends of a range and at every value of a choice. Each
        GBDT rule is a type and an interval, so every draw between the ends
        passes too, whatever the seed.
        """
        expect("search space", raw, lambda r: isinstance(r, dict), "a JSON object")
        check_keys("search space", raw, ("n_iter", "inner_folds", "distributions"))
        space = cls(**raw)
        expect("search space 'n_iter'", space.n_iter, lambda n: is_integer(n) and n >= 1, "an integer >= 1")
        expect("search space 'inner_folds'", space.inner_folds, lambda n: is_integer(n) and n >= 2, "an integer >= 2")
        expect("search space distributions", space.distributions, lambda d: isinstance(d, dict), "a JSON object")
        check_keys("search space distributions", space.distributions, _TUNABLE)
        for name, spec in space.distributions.items():
            expect(f"distribution of {name!r}", spec, lambda s: isinstance(s, dict), "a JSON object")
            for value in _distribution(name, spec)[0](name, spec):
                params = check_parameters(f"search space {spec['type']}", {name: value}, _TUNABLE)
                try:
                    GBDTParams(**params).validate()
                except ValueError as exc:
                    raise ConfigError(f"{spec['type']} distribution of {name!r} draws {value!r}, but {exc}") from exc
        return space


DEFAULT_SPACE = SearchSpace()


def ci_half_width(values: Sequence[float]) -> float | None:
    """Student-t 95 % half-width of the mean; None when only one value exists."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        return None
    sem = values.std(ddof=1) / math.sqrt(n)
    return float(stdtrit(n - 1, CI_QUANTILE) * sem)  # the inverse t CDF that SciPy's t.ppf calls


@dataclass
class MethodResult:
    """Per-fold metrics of one selection method."""

    name: str
    fold_ndcg: list[float]
    fold_top1: list[float]
    fold_top3: list[float]

    @classmethod
    def from_scores(cls, name: str, truth: np.ndarray, scores: np.ndarray, folds: Sequence) -> "MethodResult":
        """Each fold's metrics of the out-of-fold ``scores``, read at the fold's test rows."""
        per_fold = [selector_fold_metrics(truth[test], scores[test]) for test in folds]
        return cls(name, *(list(metric) for metric in zip(*per_fold)))

    def mean_ndcg(self) -> float:
        return float(np.mean(self.fold_ndcg))

    def summary(self) -> dict:
        return {
            "name": self.name,
            "fold_ndcg": self.fold_ndcg,
            "fold_top1_pct": self.fold_top1,
            "fold_top3_pct": self.fold_top3,
            "mean_ndcg": self.mean_ndcg(),
            "ci_ndcg": ci_half_width(self.fold_ndcg),
            "mean_top1_pct": float(np.mean(self.fold_top1)),
            "ci_top1_pct": ci_half_width(self.fold_top1),
            "mean_top3_pct": float(np.mean(self.fold_top3)),
            "ci_top3_pct": ci_half_width(self.fold_top3),
        }


def selector_fold_metrics(truth: np.ndarray, scores: np.ndarray) -> tuple[float, float, float]:
    """Select, look up and aggregate for one fold of held-out users.

    ``truth`` holds the users' realized NDCG and ``scores`` the selector's
    scores, both (users, algorithms). One ``top_k`` call ranks every row: its
    first column is the chosen algorithm, and a top-k hit is a truly-best
    algorithm (any one of a tied row maximum) among the first k columns.
    Returns the mean realized NDCG and the top-1 and top-3 hit percentages.
    """
    truth = np.asarray(truth, dtype=np.float64)
    n = truth.shape[0]
    ranked = top_k(scores, min(3, truth.shape[1]))  # skips NaN/inf scores, pads rows with -1
    if (ranked[:, 0] < 0).any():
        raise ValueError("every score row needs a finite value")
    picked = truth[np.arange(n)[:, None], ranked]
    hits = (picked == truth.max(axis=1, keepdims=True)) & (ranked >= 0)  # a -1 pad is no hit
    return (
        float(np.mean(picked[:, 0])),
        100.0 * int(hits[:, 0].sum()) / n,
        100.0 * int(hits.any(axis=1).sum()) / n,
    )


@dataclass
class EvaluationReport:
    """Outcome of one nested-CV run: each method's fold metrics and the record they are read from."""

    mode: str
    algorithms: list[str]
    n_folds: int
    seed: int
    n_users: int
    sba_algorithm: str
    methods: dict[str, MethodResult]
    best_params_per_fold: list[dict]
    scores: dict[str, np.ndarray]  # per method, out-of-fold (users, algorithms) in pm.users order; not written
    folds: list[np.ndarray]  # each outer fold's test rows; not written

    @property
    def model_label(self) -> str:
        return self.methods["model"].name

    def gap_closed_pct(self) -> float | None:
        sba = self.methods["sba"].mean_ndcg()
        vba = self.methods["vba"].mean_ndcg()
        model = self.methods["model"].mean_ndcg()
        if vba <= sba:
            return None
        return gap_closed(model, sba, vba)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "algorithms": self.algorithms,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "n_users": self.n_users,
            "sba_algorithm": self.sba_algorithm,
            "model_label": self.model_label,
            "methods": {k: m.summary() for k, m in self.methods.items()},
            "best_params_per_fold": self.best_params_per_fold,
            "gap_closed_pct": self.gap_closed_pct(),
        }

    def render_markdown(self) -> str:
        lines = _markdown_table(
            f"Selection results ({self.model_label}, {self.n_folds}-fold, seed {self.seed})",
            ["Method", "NDCG@10", "95% CI", "Top-1 %", "Top-3 %"],
            [[label, *_method_cells(self.methods[key])]
             for label, key in (("SBA", "sba"), (self.model_label, "model"), ("VBA", "vba"))],
        )
        gap = self.gap_closed_pct()
        lines.append("")
        lines.append(
            f"Gap closed: {gap:.1f}%" if gap is not None else "Gap closed: undefined (VBA <= SBA)"
        )
        lines.append(f"Single best algorithm: {self.sba_algorithm}")
        return "\n".join(lines) + "\n"


def _markdown_table(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """A report's heading and markdown table, one line per row."""
    header_lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return [f"# {title}", "", *header_lines, *("| " + " | ".join(cells) + " |" for cells in rows)]


def _method_cells(method: MethodResult) -> list[str]:
    """NDCG@10, its 95% CI, top-1 % and top-3 % as table cells."""
    s = method.summary()
    ci = f"±{s['ci_ndcg']:.3f}" if s["ci_ndcg"] is not None else "n/a"
    return [f"{s['mean_ndcg']:.3f}", ci, f"{s['mean_top1_pct']:.1f}", f"{s['mean_top3_pct']:.1f}"]


def _gap_cell(gap: float | None) -> str:
    return f"{gap:.1f}" if gap is not None else "-"


def _mode_label(mode: str) -> str:
    return "M(User-Only)" if mode == "user_only" else "M(User+Algo)"


def _meta_dataset(mode: str, pm: PerformanceMatrix, train: np.ndarray, x: np.ndarray, enc):
    """The meta-learner's training ``(x, y)`` for the ``train`` rows."""
    if mode == "user_only":
        return build_wide(x[train], pm.values[train])
    return build_long(x[train], pm.values[train], enc.aligned(pm.algorithms))


def _fit_and_score(
    mode: str,
    pm: PerformanceMatrix,
    enc,
    x: np.ndarray,
    fit_rows: np.ndarray,
    score_rows: np.ndarray,
    params: Sequence[GBDTParams],
) -> list[np.ndarray]:
    """Fit one meta-learner per entry of ``params`` on the ``fit_rows`` and score the ``score_rows``.

    ``x`` holds every user's feature row in ``pm.users`` order. The
    ``fit_rows``' meta-dataset is built once, and the fits run in
    ``min_samples_leaf`` order: each group shares one ``Presort`` of its
    ``x``, with at most one alive at a time. Returns one (``score_rows``,
    algorithms) score array per entry of ``params``, in ``params`` order.
    """
    x_fit, y_fit = _meta_dataset(mode, pm, fit_rows, x, enc)
    x_score = x[score_rows]
    scores, presort = [None] * len(params), None
    for c_idx in sorted(range(len(params)), key=lambda c: params[c].min_samples_leaf):
        if presort is None or presort.min_samples_leaf != params[c_idx].min_samples_leaf:
            presort = None  # drop the last group's presort before sorting for the next
            presort = Presort(x_fit, params[c_idx].min_samples_leaf)
        if mode == "user_only":
            model = fit_multi_output_gbdt(x_fit, y_fit, params[c_idx], presort=presort)
            scores[c_idx] = predict_scores_user_only(model, x_score)
        else:
            model = fit_gbdt(x_fit, y_fit, params[c_idx], presort=presort)
            scores[c_idx] = predict_scores_user_algo(model, x_score, enc, pm.algorithms)
        del model  # not kept alive through the next presort and fit
    return scores


def _outer_folds(
    pm: PerformanceMatrix, user_features: UserFeatureTable, n_folds: int, seed: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(fold index, training rows, test rows, x)`` for each outer fold.

    Rows are positions in ``pm.users``. The training rows ascend; the test rows
    keep the fold's dealing order. ``x`` holds every user's feature row,
    standardized with the training rows' statistics only.
    """
    n_users = len(pm.users)
    folds = make_user_folds(n_users, n_folds, seed)
    assert_user_disjoint(folds)
    features = user_features.subset(pm.users).matrix
    for fold_idx, test in enumerate(folds):
        train = np.setdiff1d(np.arange(n_users), test)
        yield fold_idx, train, test, standardize_apply(standardize_fit(features[train]), features)


def run_nested_cv(
    pm: PerformanceMatrix,
    user_features: UserFeatureTable,
    algo_table: AlgorithmFeatureTable | None,
    mode: str = "user_only",
    n_folds: int = 10,
    space: SearchSpace | None = None,
    seed: int = 0,
    predictor: str = "model",
) -> EvaluationReport:
    """Outer-fold evaluation of one meta-learner mode against SBA and VBA.

    Every fold metric is read from each method's out-of-fold score matrix
    (see the module docstring). ``predictor`` stays only for perfbench:
    "oracle" and "single_best" take VBA's and SBA's matrix as the model's,
    so they must reproduce VBA and SBA exactly.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    if predictor not in PREDICTORS:
        raise ConfigError(f"predictor must be one of {PREDICTORS}")
    if mode == "user_algo" and algo_table is None and predictor == "model":
        raise ConfigError("user_algo mode requires an algorithm feature table")
    space = space or DEFAULT_SPACE

    sba_algorithm, _ = single_best_algorithm(pm)
    enc = encode_algo_features(algo_table) if (mode == "user_algo" and algo_table is not None) else None

    folds = list(_outer_folds(pm, user_features, n_folds, seed))
    scores = {"sba": np.tile(pm.column_means(), (len(pm.users), 1)), "vba": pm.values}
    if predictor != "model":
        best_params_per_fold = [{} for _ in folds]
        scores["model"] = scores["vba" if predictor == "oracle" else "sba"]
    else:
        best_params_per_fold = _random_search(pm, space, mode, folds, enc, seed)
        refits = [(x, train, test, [GBDTParams(**best, seed=derive_seed(seed, "refit", fold_idx)).validate()])
                  for (fold_idx, train, test, x), best in zip(folds, best_params_per_fold)]
        fitted = map_jobs(lambda job: _fit_and_score(mode, pm, enc, *job), refits)
        scores["model"] = np.empty_like(pm.values)
        for (_, _, test, _), [fold_scores] in zip(refits, fitted):
            scores["model"][test] = fold_scores

    test_rows = [test for _, _, test, _ in folds]
    labels = {"sba": "SBA", "vba": "VBA", "model": _mode_label(mode) if predictor == "model" else predictor}
    return EvaluationReport(
        mode=mode,
        algorithms=list(pm.algorithms),
        n_folds=n_folds,
        seed=seed,
        n_users=len(pm.users),
        sba_algorithm=sba_algorithm,
        methods={name: MethodResult.from_scores(label, pm.values, scores[name], test_rows)
                 for name, label in labels.items()},
        best_params_per_fold=best_params_per_fold,
        scores=scores,
        folds=test_rows,
    )


def _random_search(pm, space, mode, folds, enc, seed) -> list[dict]:
    """Each outer fold's hyperparameters: random search over inner folds of its training rows.

    Every (outer fold, inner fold) pair is one ``_fit_and_score`` job, run by
    one ``map_jobs`` call: it fits the fold's candidates on the inner fold's
    training rows and returns their scores on its validation rows. Every seed
    derives from the run seed, the fold, the candidate and the inner fold, so
    no job depends on another. Back in the calling process, a candidate's MSE
    is the mean over its inner folds of the validation MSE of its scores
    against the true per-algorithm NDCG; a fold's winner is its first
    candidate with the lowest MSE, and NaN never wins.
    """
    candidates_per_fold, jobs = [], []  # jobs: (x, fit rows, validation rows, params) per (fold, inner fold)
    for fold_idx, train, _, x in folds:
        rng = np.random.default_rng(derive_seed(seed, "hpo", fold_idx))
        candidates = [space.sample(rng) for _ in range(space.n_iter)]
        candidates_per_fold.append(candidates)
        inner = make_user_folds(len(train), space.inner_folds, derive_seed(seed, "inner", fold_idx))
        for i_idx, val in enumerate(inner):
            params = [GBDTParams(**candidate, seed=derive_seed(seed, "inner-fit", fold_idx, c_idx, i_idx)).validate()
                      for c_idx, candidate in enumerate(candidates)]
            jobs.append((x, np.delete(train, val), train[val], params))

    scored = map_jobs(lambda job: _fit_and_score(mode, pm, enc, *job), jobs)
    per_job = ([np.mean(np.mean((pred - pm.values[val_rows]) ** 2, axis=1)) for pred in preds]
               for (_, _, val_rows, _), preds in zip(jobs, scored))
    best_per_fold = []
    for fold_idx, candidates in enumerate(candidates_per_fold):
        fold_mses = [next(per_job) for _ in range(space.inner_folds)]  # (inner fold, candidate)
        best_params, best_mse = None, np.inf
        for c_idx, candidate in enumerate(candidates):
            mse = float(np.mean([mses[c_idx] for mses in fold_mses]))
            if mse < best_mse:
                best_mse, best_params = mse, candidate
        if best_params is None:  # every MSE was NaN or inf, e.g. from non-finite targets
            raise SearchError(
                f"no hyperparameter candidate reached a finite validation MSE in outer fold {fold_idx}"
            )
        best_per_fold.append(best_params)
    return best_per_fold


@dataclass
class CombinedReport:
    """SBA / M(User-Only) / M(User+Algo) / VBA in one table."""

    user_only: EvaluationReport
    user_algo: EvaluationReport

    def to_dict(self) -> dict:
        return {"user_only": self.user_only.to_dict(), "user_algo": self.user_algo.to_dict()}

    def render_markdown(self) -> str:
        uo, ua = self.user_only, self.user_algo
        rows = [
            ("SBA", uo.methods["sba"], None),
            ("M(User-Only)", uo.methods["model"], uo.gap_closed_pct()),
            ("M(User+Algo)", ua.methods["model"], ua.gap_closed_pct()),
            ("VBA", uo.methods["vba"], None),
        ]
        lines = _markdown_table(
            f"Per-user algorithm selection ({uo.n_folds}-fold, seed {uo.seed})",
            ["Method", "NDCG@10", "95% CI", "Top-1 %", "Top-3 %", "Gap closed %"],
            [[label, *_method_cells(m), _gap_cell(gap)] for label, m, gap in rows],
        )
        lines.append("")
        lines.append(f"Single best algorithm: {uo.sba_algorithm}")
        return "\n".join(lines) + "\n"


DEFAULT_ABLATION_SETS: tuple[frozenset, ...] = (
    frozenset(),
    frozenset({"Code"}),
    frozenset({"AST"}),
    frozenset({"Performance"}),
    frozenset({"Conceptual"}),
    frozenset(FEATURE_CATEGORIES),
)


def ablation_label(categories: frozenset) -> str:
    if not categories:
        return "User-Only"
    if categories == frozenset(FEATURE_CATEGORIES):
        return "All Features"
    return "+".join(sorted(categories))


@dataclass
class AblationReport:
    n_folds: int
    seed: int
    entries: dict[str, EvaluationReport]

    def to_dict(self) -> dict:
        return {
            "n_folds": self.n_folds,
            "seed": self.seed,
            "entries": {label: report.to_dict() for label, report in self.entries.items()},
        }

    def render_markdown(self) -> str:
        lines = _markdown_table(
            f"Feature-category ablation ({self.n_folds}-fold, seed {self.seed})",
            ["Features", "NDCG@10", "95% CI", "Gap closed %"],
            [[label, *_method_cells(report.methods["model"])[:2], _gap_cell(report.gap_closed_pct())]
             for label, report in self.entries.items()],
        )
        return "\n".join(lines) + "\n"


def run_ablation(
    pm: PerformanceMatrix,
    user_features: UserFeatureTable,
    algo_table: AlgorithmFeatureTable,
    category_sets: Sequence[frozenset] | None = None,
    n_folds: int = 5,
    space: SearchSpace | None = None,
    seed: int = 0,
) -> AblationReport:
    """Meta-learner runs restricted to category subsets of algorithm features.

    The empty set is the user-only configuration and equals the user-only
    run; the full set equals the unrestricted user+algo run.
    """
    category_sets = list(category_sets) if category_sets is not None else list(DEFAULT_ABLATION_SETS)
    entries: dict[str, EvaluationReport] = {}
    for categories in category_sets:
        table = algo_table.filter_categories(set(categories)) if categories else None
        mode = "user_algo" if categories else "user_only"
        entries[ablation_label(frozenset(categories))] = run_nested_cv(
            pm, user_features, table, mode, n_folds, space, seed
        )
    return AblationReport(n_folds=n_folds, seed=seed, entries=entries)


@dataclass
class ImportanceReport:
    feature_names: list[str]
    mean: np.ndarray
    std: np.ndarray
    n_folds: int
    seed: int

    def top(self, k: int = 20) -> list[tuple[str, float, float]]:
        order = np.argsort(-self.mean, kind="stable")[:k]
        return [(self.feature_names[i], float(self.mean[i]), float(self.std[i])) for i in order]

    def to_dict(self) -> dict:
        return {
            "n_folds": self.n_folds,
            "seed": self.seed,
            "features": [
                {"name": n, "mean": float(m), "std": float(s)}
                for n, m, s in zip(self.feature_names, self.mean, self.std)
            ],
            "top20": [
                {"name": n, "mean": m, "std": s} for n, m, s in self.top(20)
            ],
        }

    def render_markdown(self) -> str:
        lines = _markdown_table(
            f"Feature importance ({self.n_folds}-fold, seed {self.seed})",
            ["Rank", "Feature", "Mean importance", "Std"],
            [[str(rank), name, f"{mean:.4f}", f"{std:.4f}"]
             for rank, (name, mean, std) in enumerate(self.top(20), start=1)],
        )
        return "\n".join(lines) + "\n"


def run_importance(
    pm: PerformanceMatrix,
    user_features: UserFeatureTable,
    algo_table: AlgorithmFeatureTable,
    n_folds: int = 5,
    params: GBDTParams | None = None,
    seed: int = 0,
) -> ImportanceReport:
    """Split-gain importance of the pair model, aggregated over folds."""
    enc = encode_algo_features(algo_table)
    base = params or GBDTParams()

    names = list(user_features.names) + list(enc.feature_names)

    def fold_importance(fold) -> np.ndarray:
        """Split-gain importance of the pair model fitted on one outer fold's training rows."""
        fold_idx, train, _, x = fold
        fold_params = replace(base, seed=derive_seed(seed, "importance", fold_idx)).validate()
        return fit_gbdt(*_meta_dataset("user_algo", pm, train, x, enc), fold_params).feature_importance()

    vectors = map_jobs(fold_importance, list(_outer_folds(pm, user_features, n_folds, seed)))
    for importance in vectors:
        total = importance.sum()
        if total > 0 and abs(total - 1.0) > 1e-6:
            raise AssertionError("feature importance must sum to 1 within 1e-6")

    stacked = np.vstack(vectors)
    return ImportanceReport(
        feature_names=names,
        mean=stacked.mean(axis=0),
        std=stacked.std(axis=0),
        n_folds=n_folds,
        seed=seed,
    )
