"""Command-line pipeline: synth, ingest, ground-truth, features, evaluate,
ablate, importance.

Every command takes --config (JSON), --out (directory), and optionally --seed
(overrides the config seed). Each run writes its artifacts plus a manifest
recording the echoed config, the seeds actually used, and SHA-256 hashes of
every file the stage read, which together reproduce the outputs exactly.
Exit codes: 0 on success, 2 for configuration problems, 1 for runtime
failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, experiment
from .algo_features import (
    FEATURE_CATEGORIES,
    AlgorithmFeatureTable,
    assemble_algorithm_features,
    landmark_portfolio,
    load_conceptual_map,
    static_metrics_for_portfolio,
)
from .data import (
    IngestConfig,
    dataset_stats,
    filter_min_interactions,
    ingest_raw,
    read_interactions_csv,
    sample_users,
    temporal_split_per_user,
    write_interactions_csv,
    write_json,
)
from .errors import ConfigError, RecselectError, SchemaError
from .experiment import (
    DEFAULT_SPACE,
    MODES,
    CombinedReport,
    SearchSpace,
    derive_seed,
    run_ablation,
    run_importance,
)
from .ground_truth import (
    PerformanceMatrix,
    evaluable_users,
    evaluate_portfolio,
    single_best_algorithm,
    virtual_best_algorithm,
)
from .meta import GBDTParams
from .pool import map_jobs
from .recommenders import (
    PortfolioConfig,
    algorithm_source_path,
    build_train_matrix,
    check_keys,
    check_parameters,
    keyword_defaults,
    save_model,
    train_algorithm,
    train_parameters,
)
from .synth import (
    PROBE_GENERATORS,
    planted_two_population,
    write_sample_event_log,
)
from .user_features import RAW_TIMESCALE_FEATURES, UserFeatureTable, user_feature_table

DATASET_KINDS = {"planted": planted_two_population, **PROBE_GENERATORS}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, found {type(config).__name__}")
    return config


class Stage:
    """One command's config, output directory, seed and ``--mode``, and what it read.

    Handlers name every file they open through ``path`` where they read it, so
    ``inputs`` lists exactly the files the manifest hashes. ``manifest`` holds
    the stage's extra deterministic manifest fields.
    """

    def __init__(self, config: dict, out_dir: str, seed: int | None, mode: str | None = None):
        self.config = config
        self.out_dir = out_dir
        self.mode = mode
        self.inputs: list[str] = []
        self.manifest: dict = {}
        config_seed = self.integer("seed", 0, 0)  # checked also where ``--seed`` overrides it
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed must be an integer >= 0, found {seed}")
        self.seed = seed if seed is not None else config_seed

    def require(self, key: str, entry: dict | None = None):
        source = self.config if entry is None else entry
        if key not in source:
            raise ConfigError(f"config is missing required key {key!r}")
        return source[key]

    def string(self, key: str, entry: dict | None = None) -> str:
        value = self.require(key, entry)
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, found {value!r}")
        return value

    def optional_string(self, key: str) -> str | None:
        value = self.config.get(key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be null or a string, found {value!r}")
        return value

    def weights(self, key: str) -> dict[str, float] | None:
        """Null, or an object whose values are all finite numbers."""
        value = self.config.get(key)
        if value is not None and not (isinstance(value, dict) and all(
            not isinstance(w, bool) and isinstance(w, (int, float)) and math.isfinite(w) for w in value.values()
        )):
            raise ConfigError(f"config key {key!r} must be null or an object of finite numbers, found {value!r}")
        return value

    def path(self, key: str, entry: dict | None = None) -> str:
        """The file path under ``key``, recorded as an input of this stage."""
        path = self.string(key, entry)
        self.inputs.append(path)
        return path

    def integer(self, key: str, default: int, minimum: int, entry: dict | None = None) -> int:
        value = (self.config if entry is None else entry).get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigError(f"config key {key!r} must be an integer >= {minimum}, found {value!r}")
        return value

    def number(self, key: str, default: float, entry: dict | None = None) -> float:
        value = (self.config if entry is None else entry).get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, found {value!r}")
        return value

    def boolean(self, key: str, default: bool) -> bool:
        value = self.config.get(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, found {value!r}")
        return value

    def objects(self, key: str, default: list | None = None) -> list[dict]:
        value = self.require(key) if default is None else self.config.get(key, default)
        if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
            raise ConfigError(f"config key {key!r} must be a list of objects, found {value!r}")
        return value

    def portfolio(self) -> PortfolioConfig:
        """The ``portfolio`` given inline or as a file path, else the default one."""
        raw = self.config.get("portfolio")
        if isinstance(raw, str):
            raw = _load_config(self.path("portfolio"))
        portfolio = PortfolioConfig() if raw is None else PortfolioConfig.from_dict(raw)
        self.manifest["unavailable_algorithms"] = portfolio.unavailable
        return portfolio


def _write_manifest(command: str, stage: Stage, outputs: list[str]) -> None:
    config = stage.config
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "seed_used": stage.seed,
        "inputs": {p: _sha256(p) for p in stage.inputs},
        "outputs": sorted(os.path.basename(p) for p in outputs),
        **stage.manifest,
    }
    write_json(manifest, os.path.join(stage.out_dir, f"manifest_{command.replace('-', '_')}.json"))


def _generate(stage: Stage, entry: dict, kind: str, generator, default_seed: int):
    """``generator`` called with the entry's checked ``params`` and its ``seed``."""
    defaults = keyword_defaults(generator)
    del defaults["seed"]  # set by the entry's own ``seed``
    params = check_parameters(f"kind {kind!r}", entry.get("params", {}), defaults)
    return generator(seed=stage.integer("seed", default_seed, 0, entry), **params)


def cmd_synth(stage: Stage) -> list[str]:
    outputs = []
    for entry in stage.objects("datasets"):
        check_keys("synth dataset entry", entry, ("kind", "name", "seed", "params"))
        kind = stage.string("kind", entry)
        name = stage.string("name", entry) if "name" in entry else kind
        path, seed = os.path.join(stage.out_dir, f"{name}.csv"), derive_seed(stage.seed, name)
        if path in outputs:
            raise ConfigError(f"datasets use the name {name!r} in more than one entry")
        if kind == "event_log":
            _generate(stage, entry, kind, functools.partial(write_sample_event_log, path), seed)
        elif kind in DATASET_KINDS:
            write_interactions_csv(_generate(stage, entry, kind, DATASET_KINDS[kind], seed), path)
        else:
            raise ConfigError(f"unknown synth kind {kind!r}")
        outputs.append(path)
    return outputs


def cmd_ingest(stage: Stage) -> list[str]:
    ingest_cfg = IngestConfig(
        name=stage.string("name"),
        user_col=stage.string("user_col"),
        item_col=stage.string("item_col"),
        rating_col=stage.optional_string("rating_col"),
        timestamp_col=stage.optional_string("timestamp_col"),
        event_weights=stage.weights("event_weights"),
        dedup=stage.config.get("dedup", "sum"),  # IngestConfig checks it against DEDUP_MODES
    )
    dataset = ingest_raw(stage.path("path"), ingest_cfg)
    dataset = filter_min_interactions(dataset, stage.integer("min_interactions", 10, 1))
    stats = dataset_stats(dataset)

    clean_path = os.path.join(stage.out_dir, f"{ingest_cfg.name}_clean.csv")
    write_interactions_csv(dataset, clean_path)
    stats_json = os.path.join(stage.out_dir, f"{ingest_cfg.name}_stats.json")
    write_json({"dataset": ingest_cfg.name, **stats.as_dict()}, stats_json)
    stats_csv = os.path.join(stage.out_dir, f"{ingest_cfg.name}_stats.csv")
    with open(stats_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "users", "items", "interactions", "sparsity"])
        writer.writerow(
            [ingest_cfg.name, stats.users, stats.items, stats.interactions, f"{stats.sparsity:.6f}"]
        )
    return [clean_path, stats_json, stats_csv]


def _split(stage: Stage, dataset, entry: dict | None = None):
    return temporal_split_per_user(dataset, stage.number("test_fraction", 0.2, entry))


def cmd_ground_truth(stage: Stage) -> list[str]:
    k = stage.integer("k", 10, 1)
    save_models = stage.boolean("save_models", False)
    portfolio = stage.portfolio()
    for algo, params in portfolio.algorithms.items():
        if "seed" in train_parameters(algo) and "seed" not in params:
            params["seed"] = derive_seed(stage.seed, "train", algo)
    split = _split(stage, read_interactions_csv(stage.path("dataset")))

    matrix = build_train_matrix(split.train)
    users = evaluable_users(matrix, split.test)
    models_dir = os.path.join(stage.out_dir, "models")
    if save_models:
        os.makedirs(models_dir, exist_ok=True)

    def column(algo: str) -> np.ndarray:
        """One algorithm's NDCG column; its model is pickled here when ``save_models`` is set."""
        model = train_algorithm(algo, matrix, portfolio.algorithms[algo])
        values = evaluate_portfolio(matrix, users, {algo: model}, k=k).values[:, 0]
        if save_models:
            save_model(model, os.path.join(models_dir, f"{algo}.pkl"))
        return values

    algorithms = portfolio.ordered_ids()
    pm = PerformanceMatrix(users.users, algorithms, np.column_stack(map_jobs(column, algorithms)),
                           skipped_users=users.skipped)

    pm_path = os.path.join(stage.out_dir, "performance_matrix.csv")
    pm.to_csv(pm_path)
    sba_algo, sba_mean = single_best_algorithm(pm)
    vba_mean = virtual_best_algorithm(pm)
    summary = {
        "algorithms": pm.algorithms,
        "n_users": len(pm.users),
        "skipped_users": pm.skipped_users,
        "sba_algorithm": sba_algo,
        "sba_mean_ndcg": sba_mean,
        "vba_mean_ndcg": vba_mean,
        "gap_potential_pct": (
            100.0 * (vba_mean - sba_mean) / sba_mean if vba_mean > sba_mean > 0 else None
        ),
        "column_mean_ndcg": dict(zip(pm.algorithms, pm.column_means().tolist())),
    }
    summary_path = os.path.join(stage.out_dir, "ground_truth_summary.json")
    write_json(summary, summary_path)

    outputs = [pm_path, summary_path]
    if save_models:
        outputs += [os.path.join(models_dir, f"{algo}.pkl") for algo in algorithms]
    return outputs


def _probe_split(stage: Stage, name: str, entry: dict):
    check_keys(f"probe {name!r}", entry, ("name", "path", "kind", "params", "seed", "sample_users",
                                          "sample_seed", "test_fraction"))
    if "path" in entry:
        for key in ("kind", "params", "seed"):
            if key in entry:
                raise ConfigError(f"probe {name!r} is read from its 'path' and takes no {key!r}")
        dataset = read_interactions_csv(stage.path("path", entry), name=name)
    else:
        kind = stage.string("kind", entry)
        if kind not in PROBE_GENERATORS:
            raise ConfigError(f"unknown probe kind {kind!r}")
        dataset = _generate(stage, entry, kind, PROBE_GENERATORS[kind], derive_seed(stage.seed, "probe", name))
    if "sample_users" in entry:
        dataset = sample_users(
            dataset,
            stage.number("sample_users", 1.0, entry),
            stage.integer("sample_seed", derive_seed(stage.seed, "sample", name), 0, entry),
        )
    return _split(stage, dataset, entry)


def cmd_features(stage: Stage) -> list[str]:
    k = stage.integer("k", 10, 1)
    portfolio = stage.portfolio()
    algorithms = portfolio.ordered_ids()
    conceptual = stage.config.get("conceptual_map")
    if isinstance(conceptual, str):
        conceptual = _load_config(stage.path("conceptual_map"))
    tags = load_conceptual_map(algorithms, conceptual)
    split = _split(stage, read_interactions_csv(stage.path("dataset")))

    table = user_feature_table(split.train)
    user_path = os.path.join(stage.out_dir, "user_features.csv")
    table.to_csv(user_path)

    probes = {}
    for entry in stage.objects("probes", []):
        name = stage.string("name", entry)
        if name in probes:
            raise ConfigError(f"probes use the name {name!r} in more than one entry")
        probes[name] = _probe_split(stage, name, entry)
    code, ast_metrics = static_metrics_for_portfolio(algorithms)
    landmarks = landmark_portfolio(probes, portfolio.algorithms, k=k)
    algo_table = assemble_algorithm_features(
        code, ast_metrics, landmarks, tags, algorithms, list(probes)
    )
    algo_path = os.path.join(stage.out_dir, "algorithm_features.csv")
    algo_table.to_csv(algo_path)
    stage.manifest["raw_timescale_features"] = list(RAW_TIMESCALE_FEATURES)
    # The Code and AST columns measure these files; keyed by package path, so no checkout path shows.
    package = os.path.dirname(os.path.abspath(__file__))
    stage.manifest["algorithm_sources"] = {
        os.path.relpath(path, package).replace(os.sep, "/"): _sha256(path)
        for path in map(algorithm_source_path, algorithms)
    }
    return [user_path, algo_path]


def _space(stage: Stage) -> SearchSpace:
    return SearchSpace.from_dict(stage.config["space"]) if "space" in stage.config else DEFAULT_SPACE


def _require_rows(kind: str, wanted: list[str], present: list[str], path: str) -> None:
    present = set(present)
    missing = [x for x in wanted if x not in present]
    if missing:
        raise SchemaError(
            f"{len(missing)} {kind}(s) of the performance matrix have no row in {path}, first {missing[0]!r}"
        )


def _load_eval_inputs(stage: Stage, need_algo: bool = True):
    pm = PerformanceMatrix.from_csv(stage.path("performance_matrix"))
    user_features = UserFeatureTable.from_csv(stage.path("user_features"))
    _require_rows("user", pm.users, user_features.users, stage.config["user_features"])
    algo_table = None
    if need_algo:
        algo_table = AlgorithmFeatureTable.from_csv(stage.path("algo_features"))
        _require_rows("algorithm", pm.algorithms, algo_table.algorithms, stage.config["algo_features"])
    return pm, user_features, algo_table


def _write_report_files(out_dir: str, stem: str, report) -> list[str]:
    json_path = os.path.join(out_dir, f"{stem}.json")
    write_json(report.to_dict(), json_path)
    md_path = os.path.join(out_dir, f"{stem}.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(report.render_markdown())
    return [json_path, md_path]


def cmd_evaluate(stage: Stage) -> list[str]:
    """One ``run_nested_cv`` per reported mode, on the same folds, space and seed."""
    modes = MODES if stage.mode == "both" else (stage.mode,)
    pm, user_features, algo_table = _load_eval_inputs(stage, need_algo="user_algo" in modes)
    space = _space(stage)
    n_folds = stage.integer("folds", 10, 2)
    # Looked up on the module at call time, so a hook set on ``experiment.run_nested_cv``
    # (perfbench's tracer) sees each run, as it sees the runs inside ``run_ablation``.
    reports = [experiment.run_nested_cv(pm, user_features, algo_table, mode, n_folds, space, stage.seed)
               for mode in modes]
    if len(reports) == 1:
        return _write_report_files(stage.out_dir, f"evaluation_{stage.mode}", reports[0])

    outputs = _write_report_files(stage.out_dir, "evaluation_both", CombinedReport(*reports))
    summary_csv = os.path.join(stage.out_dir, "evaluation_both.csv")
    with open(summary_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "mean_ndcg", "ci_ndcg", "top1_pct", "top3_pct", "gap_closed_pct"])
        for rep in reports:
            s = rep.methods["model"].summary()
            writer.writerow(
                [
                    rep.model_label,
                    f"{s['mean_ndcg']:.6f}",
                    "" if s["ci_ndcg"] is None else f"{s['ci_ndcg']:.6f}",
                    f"{s['mean_top1_pct']:.3f}",
                    f"{s['mean_top3_pct']:.3f}",
                    "" if rep.gap_closed_pct() is None else f"{rep.gap_closed_pct():.3f}",
                ]
            )
    outputs.append(summary_csv)
    return outputs


def cmd_ablate(stage: Stage) -> list[str]:
    pm, user_features, algo_table = _load_eval_inputs(stage)
    sets = None
    if "category_sets" in stage.config:
        raw = stage.config["category_sets"]
        if isinstance(raw, list) and all(isinstance(s, list) and all(c in FEATURE_CATEGORIES for c in s) for s in raw):
            sets = [frozenset(s) for s in raw]
        if not sets or len(set(sets)) < len(sets):
            raise ConfigError(
                f"config key 'category_sets' must be a non-empty list of distinct lists of "
                f"feature categories {list(FEATURE_CATEGORIES)}, found {raw!r}"
            )
    report = run_ablation(
        pm, user_features, algo_table, sets, stage.integer("folds", 5, 2), _space(stage), stage.seed
    )
    return _write_report_files(stage.out_dir, "ablation", report)


def cmd_importance(stage: Stage) -> list[str]:
    pm, user_features, algo_table = _load_eval_inputs(stage)
    params = stage.config.get("params", {})
    if isinstance(params, dict) and "seed" in params:
        raise ConfigError("importance 'params' takes no 'seed': each fold seeds its model from the run seed")
    report = run_importance(
        pm, user_features, algo_table, stage.integer("folds", 5, 2), GBDTParams.from_dict(params), stage.seed
    )
    outputs = _write_report_files(stage.out_dir, "importance", report)
    csv_path = os.path.join(stage.out_dir, "importance.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_importance", "std_importance"])
        for name, mean, std in zip(report.feature_names, report.mean, report.std):
            writer.writerow([name, repr(float(mean)), repr(float(std))])
    outputs.append(csv_path)
    return outputs


_TABLES = ("performance_matrix", "user_features", "algo_features")
# Each command's handler and the top-level config keys it reads besides ``seed``. Nothing reads
# ``timing`` or ``time_runs`` any more, but the benchmark's features configs still set them.
COMMANDS = {
    "synth": (cmd_synth, ("datasets",)),
    "ingest": (cmd_ingest, ("path", "name", "user_col", "item_col", "rating_col", "timestamp_col", "event_weights",
                            "dedup", "min_interactions")),
    "ground-truth": (cmd_ground_truth, ("dataset", "test_fraction", "portfolio", "k", "save_models")),
    "features": (cmd_features, ("dataset", "test_fraction", "portfolio", "k", "conceptual_map", "probes", "timing",
                                "time_runs")),
    "evaluate": (cmd_evaluate, _TABLES + ("space", "folds")),
    "ablate": (cmd_ablate, _TABLES + ("space", "folds", "category_sets")),
    "importance": (cmd_importance, _TABLES + ("folds", "params")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recselect",
        description="Per-user recommender algorithm selection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument("--out", required=True, help="output directory (created if absent)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "evaluate":
            cmd.add_argument(
                "--mode", default="both", choices=["user_only", "user_algo", "both"],
                help="which meta-learner variant(s) to evaluate",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handler, keys = COMMANDS[args.command]
        stage = Stage(_load_config(args.config), args.out, args.seed, getattr(args, "mode", None))
        check_keys(f"{args.command} config", stage.config, ("seed",) + keys)
        os.makedirs(args.out, exist_ok=True)
        outputs = handler(stage)
        _write_manifest(args.command, stage, outputs)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RecselectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
