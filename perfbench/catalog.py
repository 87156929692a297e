"""What the benchmark measures: workloads and the per-layer metric mapping.

This module is the machine-readable record of each workload's size, seed and
reason, and of which layer metric should move which end-to-end metric on
which workload. Metric names and units are those of BENCHMARK.json at the
repository root; ``test_selfcheck.py`` asserts that every per-layer metric
there has an entry here.

Both workloads report every end-to-end metric, so the gated stage time is
named by role; each run also prints it under the stage's own name:

    primary_stage_s = groundtruth_s on portfolio_gt, evaluate_s on selector_cv

The second timed stage of each workload (features_s, importance_s) is printed
with every run but is not an end-to-end metric: on a shared 2-CPU host its
run-to-run spread reached 41 % of the median, more than the largest bound
(0.25) a gated metric may have. Per-layer ``moves`` entries use the printed
stage names.
"""

from __future__ import annotations

ALGORITHMS = ("pop", "itemknn", "userknn", "biasedmf", "implicitmf", "bpr", "ease")

WORKLOADS = {
    "portfolio_gt": {
        "why": (
            "The recommenders do all the work and the meta-learner none: EASE builds "
            "dense item x item matrices larger than L3, MF/BPR/ALS loop in Python, and "
            "features re-runs the portfolio on three tiny probes where per-call cost dominates."
        ),
        "size": {
            "users_per_group": 400,
            "users": 800,
            "items": 5120,
            "train_interactions": 8800,
        },
        "dataset_seed": "the workload seed (17 gives the demo bench dataset at this size)",
        "setup": ["synth"],
        "timed": {"primary_stage_s": "ground-truth", "printed": "features"},
        "configs": {
            "ground-truth": "configs/ground_truth.json",
            "features": "configs/features.json (timing: wall, time_runs: 3)",
        },
        "layers": ["data", "recommenders", "ground_truth", "user_features", "algo_features",
                   "codemetrics", "astgraph", "cli"],
    },
    "selector_cv": {
        "why": (
            "The GBDT meta-learner does nearly all the timed work and the recommenders run "
            "only in setup; per-user predictions take about half of evaluate (53 % traced "
            "at seed 17), fits the rest, and importance only fits."
        ),
        "size": {
            "users_per_group": 50,
            "users": 100,
            "outer_folds": 2,
            "hpo_candidates": 4,
            "inner_folds": 2,
            "importance_folds": 5,
        },
        "dataset_seed": "the workload seed",
        "setup": ["synth", "ground-truth", "features (timing: off)"],
        "timed": {"primary_stage_s": "evaluate --mode both", "printed": "importance"},
        "configs": {
            "evaluate": "configs/ablate.json search space, folds overridden",
            "importance": "configs/importance.json",
        },
        "layers": ["experiment", "meta.gbdt", "meta.formats", "meta.preprocess", "cli"],
    },
}

_PG, _SC = "portfolio_gt", "selector_cv"
_GT, _FEAT, _EVAL, _IMP = "groundtruth_s", "features_s", "evaluate_s", "importance_s"


def _layer(layer, moves, workload):
    return {"layer": layer, "moves": moves, "workload": workload}


# name -> {layer (module), moves (stage metrics), workload}.
# Times ending in _s are self times: the span's duration minus its traced children.
PER_LAYER: dict[str, dict] = {}
for _a in ALGORITHMS:
    PER_LAYER[f"recommenders.{_a}.train_s"] = _layer("recommenders", [_GT], _PG)
for _a in ALGORITHMS:
    PER_LAYER[f"recommenders.{_a}.score_s"] = _layer("recommenders+ground_truth", [_GT], _PG)
PER_LAYER.update({
    "recommenders.ease.weights_mb": _layer("recommenders", ["peak_rss_mb"], _PG),
    "recommenders.build_matrix_s": _layer("recommenders.base", [_GT, _FEAT], _PG),
    "data.read_csv_s": _layer("data", [_GT, _FEAT], _PG),
    "data.split_s": _layer("data", [_GT, _FEAT], _PG),
    "ground_truth.users_scored": _layer("ground_truth", [], _PG),
    "ground_truth.users_skipped": _layer("ground_truth", [], _PG),
    "algo_features.landmarks_s": _layer("algo_features", [_FEAT], _PG),
})
for _a in ALGORITHMS:
    PER_LAYER[f"algo_features.landmark.{_a}_s"] = _layer("algo_features", [_FEAT], _PG)
PER_LAYER.update({
    "algo_features.landmark_failures": _layer("algo_features", [], _PG),
    "user_features.table_s": _layer("user_features", [_FEAT], _PG),
    "codemetrics.analyze_s": _layer("codemetrics", [_FEAT], _PG),
    "astgraph.analyze_s": _layer("astgraph", [_FEAT], _PG),
    "experiment.nested_cv.user_only_s": _layer("experiment", [_EVAL], _SC),
    "experiment.nested_cv.user_algo_s": _layer("experiment", [_EVAL], _SC),
    "experiment.hpo_s": _layer("experiment", [_EVAL], _SC),
    "experiment.selection_s": _layer("experiment", [_EVAL], _SC),
    "experiment.outer_folds": _layer("experiment", [], _SC),
    "experiment.hpo_fits": _layer("experiment", [], _SC),
    "meta.gbdt.fit_wide_s": _layer("meta.gbdt", [_EVAL], _SC),
    "meta.gbdt.fit_long_s": _layer("meta.gbdt", [_EVAL, _IMP], _SC),
    "meta.gbdt.fit_calls": _layer("meta.gbdt", [], _SC),
    "meta.gbdt.fit_rows": _layer("meta.gbdt", [], _SC),
    "meta.gbdt.trees_built": _layer("meta.gbdt", [], _SC),
    "meta.gbdt.predict_s": _layer("meta.gbdt", [_EVAL], _SC),
    "meta.gbdt.predict_calls": _layer("meta.gbdt", [], _SC),
    "meta.gbdt.predict_rows": _layer("meta.gbdt", [], _SC),
    "meta.gbdt.rows_per_predict_call": _layer("meta.gbdt", [], _SC),
    "meta.formats.build_s": _layer("meta.formats", [_EVAL, _IMP], _SC),
    "meta.preprocess.standardize_s": _layer("meta.preprocess", [_EVAL, _IMP], _SC),
    "experiment.run_importance_s": _layer("experiment", [_IMP], _SC),
    "cli.groundtruth_self_s": _layer("cli", [_GT], _PG),
    "cli.features_self_s": _layer("cli", [_FEAT], _PG),
    "cli.evaluate_self_s": _layer("cli", [_EVAL], _SC),
    "cli.importance_self_s": _layer("cli", [_IMP], _SC),
    "groundtruth_cpu_s": _layer("run diagnostics", [_GT], _PG),
    "features_cpu_s": _layer("run diagnostics", [_FEAT], _PG),
    "evaluate_cpu_s": _layer("run diagnostics", [_EVAL], _SC),
    "importance_cpu_s": _layer("run diagnostics", [_IMP], _SC),
    "trace_overhead_pct": _layer("run diagnostics", [], "both"),
})
