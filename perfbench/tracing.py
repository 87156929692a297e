"""Outside-in tracing: spans recorded around calls into the library's modules.

Nothing in the library is edited. ``Hooks`` replaces public callables at the
module attribute their callers look them up by (``recselect.experiment.fit_gbdt``
is the name ``run_nested_cv`` calls, ``recselect.meta.gbdt.fit_gbdt`` the one
``fit_multi_output_gbdt`` calls) and ``Hooks.restore`` puts the originals back.
A hook whose target no longer exists is skipped, and the metrics it feeds are
reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from catalog import ALGORITHMS, PER_LAYER


class Tracer:
    """In-memory spans (id, parent id, name, start, end) and exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing: set[str] = set()  # per-layer metrics whose hook could not record

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(self.spans[i][2] == name for i in self._stack)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children's."""
        children = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            totals[name] += (end - start) - children[sid]
        return totals


def _binder(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _count(count, tracer, arguments, result, metrics) -> None:
    try:
        count(tracer, arguments, result)
    except (AttributeError, KeyError, TypeError):  # the result's or arguments' shape changed
        tracer.missing.update(metrics)


def _span(name, count=None):
    """Hook factory: one span per call; ``count(tracer, arguments, result)`` adds counters.

    ``name`` is a string or a function of the bound arguments. If the target's
    signature no longer fits, the call runs untraced and its metrics are missing.
    """
    def make(original, tracer, metrics):
        bind = _binder(original)

        def wrapper(*args, **kwargs):
            try:
                arguments = bind(args, kwargs) if (callable(name) or count) else None
                label = name(arguments) if callable(name) else name
            except (KeyError, TypeError):
                tracer.missing.update(metrics)
                return original(*args, **kwargs)
            with tracer.span(label):
                result = original(*args, **kwargs)
            if count:
                _count(count, tracer, arguments, result, metrics)
            return result
        return wrapper
    return make


def _counter_only(count):
    def make(original, tracer, metrics):
        bind = _binder(original)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            try:
                arguments = bind(args, kwargs)
            except TypeError:
                tracer.missing.update(metrics)
            else:
                _count(count, tracer, arguments, result, metrics)
            return result
        return wrapper
    return make


def _portfolio_split(original, tracer, metrics):
    """Ground-truth scoring, one ``evaluate_portfolio`` call per model.

    Each cell of the performance matrix depends on one model only, so the
    merged matrix equals the joint call's; the traced run checks that it does.
    """
    import numpy as np
    from recselect.ground_truth import PerformanceMatrix

    bind = _binder(original)

    def wrapper(*args, **kwargs):
        try:
            arguments = bind(args, kwargs)
            models = dict(arguments["models"])
        except (KeyError, TypeError):
            tracer.missing.update(metrics)
            return original(*args, **kwargs)
        parts = []
        for algo, model in models.items():
            with tracer.span(f"recommenders.{algo}.score"):
                parts.append(original(**{**arguments, "models": {algo: model}}))
        users, skipped = parts[0].users, parts[0].skipped_users
        if any(p.users != users or p.skipped_users != skipped for p in parts):
            raise AssertionError("per-model evaluations disagree on the scored users")
        tracer.counters["ground_truth.users_scored"] += len(users)
        tracer.counters["ground_truth.users_skipped"] += skipped
        return PerformanceMatrix(users, list(models), np.column_stack([p.values[:, 0] for p in parts]),
                                 skipped_users=skipped)
    return wrapper


def _count_train(tracer, arguments, model):
    if arguments["algorithm_id"] == "ease":
        tracer.counters["recommenders.ease.weights_mb"] = model.b.nbytes / 1e6


def _count_landmark_failures(tracer, arguments, results):
    tracer.counters["algo_features.landmark_failures"] += sum(
        r.failed for per_probe in results.values() for r in per_probe.values()
    )


def _count_fit(tracer, arguments, model):
    tracer.counters["meta.gbdt.fit_calls"] += 1
    tracer.counters["meta.gbdt.fit_rows"] += arguments["x"].shape[0]
    tracer.counters["meta.gbdt.trees_built"] += len(model.trees)


def _count_hpo_fit(tracer, arguments, model):
    if tracer.inside("experiment.hpo"):
        tracer.counters["experiment.hpo_fits"] += 1


def _count_long_fit(tracer, arguments, model):
    _count_fit(tracer, arguments, model)
    _count_hpo_fit(tracer, arguments, model)


def _count_predict(rows):
    def count(tracer, arguments, result):
        tracer.counters["meta.gbdt.predict_calls"] += 1
        tracer.counters["meta.gbdt.predict_rows"] += rows(arguments)
    return count


def _count_outer_folds(tracer, arguments, report):
    tracer.counters["experiment.outer_folds"] += arguments["n_folds"]


_SCORE = [f"recommenders.{a}.score_s" for a in ALGORITHMS]
_LANDMARK = [f"algo_features.landmark.{a}_s" for a in ALGORITHMS]
_PREDICT = ["meta.gbdt.predict_s", "meta.gbdt.predict_calls", "meta.gbdt.predict_rows",
            "meta.gbdt.rows_per_predict_call"]
_FIT = ["meta.gbdt.fit_calls", "meta.gbdt.fit_rows", "meta.gbdt.trees_built"]

# (module, attribute, hook factory, per-layer metrics the hook feeds)
HOOKS = [
    ("recselect.cli", "read_interactions_csv", _span("data.read_csv"), ["data.read_csv_s"]),
    ("recselect.cli", "temporal_split_per_user", _span("data.split"), ["data.split_s"]),
    ("recselect.cli", "build_train_matrix", _span("recommenders.build_matrix"),
     ["recommenders.build_matrix_s"]),
    ("recselect.algo_features", "build_train_matrix", _span("recommenders.build_matrix"),
     ["recommenders.build_matrix_s"]),
    ("recselect.recommenders", "train_algorithm",
     _span(lambda a: f"recommenders.{a['algorithm_id']}.train", _count_train),
     [f"recommenders.{a}.train_s" for a in ALGORITHMS] + ["recommenders.ease.weights_mb"]),
    ("recselect.cli", "evaluate_portfolio", _portfolio_split,
     _SCORE + ["ground_truth.users_scored", "ground_truth.users_skipped"]),
    ("recselect.cli", "user_feature_table", _span("user_features.table"), ["user_features.table_s"]),
    ("recselect.algo_features", "analyze_file", _span("codemetrics.analyze"), ["codemetrics.analyze_s"]),
    ("recselect.algo_features", "analyze_ast_file", _span("astgraph.analyze"), ["astgraph.analyze_s"]),
    ("recselect.cli", "landmark_portfolio", _span("algo_features.landmarks", _count_landmark_failures),
     ["algo_features.landmarks_s", "algo_features.landmark_failures"]),
    ("recselect.algo_features", "train_algorithm",
     _span(lambda a: f"algo_features.landmark.{a['algorithm_id']}"), _LANDMARK),
    ("recselect.algo_features", "evaluate_portfolio",
     _span(lambda a: f"algo_features.landmark.{next(iter(a['models']))}"), _LANDMARK),
    ("recselect.experiment", "run_nested_cv",
     _span(lambda a: f"experiment.nested_cv.{a['mode']}", _count_outer_folds),
     ["experiment.nested_cv.user_only_s", "experiment.nested_cv.user_algo_s", "experiment.outer_folds"]),
    # The HPO loop has no public entry point; its private helper is the only boundary.
    ("recselect.experiment", "_random_search", _span("experiment.hpo"), ["experiment.hpo_s"]),
    ("recselect.experiment", "selector_fold_metrics", _span("experiment.selection"),
     ["experiment.selection_s"]),
    ("recselect.experiment", "fit_multi_output_gbdt", _span("meta.gbdt.fit_wide", _count_hpo_fit),
     ["meta.gbdt.fit_wide_s", "experiment.hpo_fits"]),
    ("recselect.meta.gbdt", "fit_gbdt", _counter_only(_count_fit), _FIT),
    ("recselect.experiment", "fit_gbdt", _span("meta.gbdt.fit_long", _count_long_fit),
     ["meta.gbdt.fit_long_s", "experiment.hpo_fits"] + _FIT),
    ("recselect.experiment", "predict_scores_user_only",
     _span("meta.gbdt.predict", _count_predict(lambda a: 1)), _PREDICT),
    ("recselect.experiment", "predict_scores_user_algo",
     _span("meta.gbdt.predict", _count_predict(lambda a: len(a["algorithms"]))), _PREDICT),
    ("recselect.experiment", "build_wide", _span("meta.formats.build"), ["meta.formats.build_s"]),
    ("recselect.experiment", "build_long", _span("meta.formats.build"), ["meta.formats.build_s"]),
    ("recselect.experiment", "standardize_fit", _span("meta.preprocess.standardize"),
     ["meta.preprocess.standardize_s"]),
    ("recselect.experiment", "standardize_apply", _span("meta.preprocess.standardize"),
     ["meta.preprocess.standardize_s"]),
    ("recselect.cli", "run_importance", _span("experiment.run_importance"),
     ["experiment.run_importance_s"]),
]


class Hooks:
    """Wrappers installed for one traced pass; a hook whose target is gone is skipped."""

    def __init__(self, tracer: Tracer):
        self._saved: list[tuple] = []
        for module_name, attribute, make, metrics in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
            except (ImportError, AttributeError):
                tracer.missing.update(metrics)
                continue
            self._saved.append((module, attribute, original))
            setattr(module, attribute, make(original, tracer, metrics))

    def restore(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans and counters define, minus the missing ones.

    The run diagnostics (``*_cpu_s``, ``trace_overhead_pct``) come from the
    untraced pass and are added by the caller.
    """
    self_s = tracer.self_times()
    c = tracer.counters
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith("_cpu_s") or name == "trace_overhead_pct":
            continue
        if name.endswith("_s"):  # a time in seconds
            # "<span>_s", or "cli.<stage>_self_s" for the span "cli.<stage>"
            span = name[:-len("_self_s")] if name.endswith("_self_s") else name[:-len("_s")]
            out[name] = self_s.get(span, 0.0)
        elif name == "meta.gbdt.rows_per_predict_call":
            calls = c["meta.gbdt.predict_calls"]
            out[name] = c["meta.gbdt.predict_rows"] / calls if calls else 0.0
        else:
            out[name] = c[name]
    return {k: v for k, v in out.items() if k not in tracer.missing}


def span_summary(tracer: Tracer) -> dict[str, list]:
    """Span name -> [calls, total seconds, self seconds]."""
    self_s = tracer.self_times()
    summary: dict[str, list] = {}
    for _, _, name, start, end in tracer.spans:
        entry = summary.setdefault(name, [0, 0.0, self_s[name]])
        entry[0] += 1
        entry[1] += end - start
    return summary
