"""Command-line pipeline: synth, ingest, ground-truth, features, evaluate,
ablate, importance.

Every command takes --config (JSON), --out (directory), and optionally --seed
(overrides the config seed). Each run writes its artifacts plus a manifest
recording the echoed config, the seeds actually used, and SHA-256 hashes of
the inputs, which together reproduce the outputs exactly. Exit codes: 0 on
success, 2 for configuration problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

from . import __version__
from .algo_features import (
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
    SearchSpace,
    derive_seed,
    run_ablation,
    run_full_evaluation,
    run_importance,
    run_nested_cv,
)
from .ground_truth import (
    PerformanceMatrix,
    evaluate_portfolio,
    single_best_algorithm,
    virtual_best_algorithm,
)
from .meta import GBDTParams
from .recommenders import (
    PortfolioConfig,
    build_train_matrix,
    save_model,
    train_portfolio,
)
from .synth import (
    PROBE_GENERATORS,
    planted_two_population,
    write_sample_event_log,
)
from .user_features import RAW_TIMESCALE_FEATURES, user_feature_table

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


def _write_manifest(out_dir, command, config, seed, inputs, outputs, extra=None):
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "seed_used": seed,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    write_json(manifest, os.path.join(out_dir, f"manifest_{command.replace('-', '_')}.json"))


def _portfolio_from_config(raw) -> PortfolioConfig:
    if raw is None:
        return PortfolioConfig()
    if isinstance(raw, str):
        return PortfolioConfig.from_dict(_load_config(raw))
    return PortfolioConfig.from_dict(raw)


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def _int_option(config: dict, key: str, default: int, minimum: int) -> int:
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"config key {key!r} must be an integer >= {minimum}, found {value!r}")
    return value


def _run_seed(config: dict, seed: int | None) -> int:
    """The --seed override, else the config's ``seed`` (default 0)."""
    return seed if seed is not None else _int_option(config, "seed", 0, 0)


def _require_path(config: dict, key: str) -> str:
    path = _require(config, key)
    if not isinstance(path, str):
        raise ConfigError(f"config key {key!r} must be a file path, found {path!r}")
    return path


def cmd_synth(config: dict, out_dir: str, seed: int | None) -> list[str]:
    datasets = _require(config, "datasets")
    base_seed = _run_seed(config, seed)
    outputs = []
    for entry in datasets:
        kind = _require(entry, "kind")
        name = entry.get("name", kind)
        entry_seed = entry.get("seed", derive_seed(base_seed, name))
        params = dict(entry.get("params", {}))
        if kind == "event_log":
            path = os.path.join(out_dir, f"{name}.csv")
            write_sample_event_log(path, seed=entry_seed, **params)
        elif kind in DATASET_KINDS:
            dataset = DATASET_KINDS[kind](seed=entry_seed, **params)
            path = os.path.join(out_dir, f"{name}.csv")
            write_interactions_csv(dataset, path)
        else:
            raise ConfigError(f"unknown synth kind {kind!r}")
        outputs.append(path)
    return outputs


def cmd_ingest(config: dict, out_dir: str, seed: int | None) -> list[str]:
    path = _require(config, "path")
    ingest_cfg = IngestConfig(
        name=_require(config, "name"),
        user_col=_require(config, "user_col"),
        item_col=_require(config, "item_col"),
        rating_col=config.get("rating_col"),
        timestamp_col=config.get("timestamp_col"),
        event_weights=config.get("event_weights"),
        dedup=config.get("dedup", "sum"),
    )
    dataset = ingest_raw(path, ingest_cfg)
    dataset = filter_min_interactions(dataset, config.get("min_interactions", 10))
    stats = dataset_stats(dataset)

    clean_path = os.path.join(out_dir, f"{ingest_cfg.name}_clean.csv")
    write_interactions_csv(dataset, clean_path)
    stats_json = os.path.join(out_dir, f"{ingest_cfg.name}_stats.json")
    write_json({"dataset": ingest_cfg.name, **stats.as_dict()}, stats_json)
    stats_csv = os.path.join(out_dir, f"{ingest_cfg.name}_stats.csv")
    with open(stats_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "users", "items", "interactions", "sparsity"])
        writer.writerow(
            [ingest_cfg.name, stats.users, stats.items, stats.interactions, f"{stats.sparsity:.6f}"]
        )
    return [clean_path, stats_json, stats_csv]


def _split_from_config(config: dict):
    dataset = read_interactions_csv(_require_path(config, "dataset"))
    return temporal_split_per_user(dataset, config.get("test_fraction", 0.2))


def cmd_ground_truth(config: dict, out_dir: str, seed: int | None) -> list[str]:
    split = _split_from_config(config)
    portfolio = _portfolio_from_config(config.get("portfolio"))
    base_seed = _run_seed(config, seed)
    for algo, params in portfolio.algorithms.items():
        if "seed" in _seedable_params(algo) and "seed" not in params:
            params["seed"] = derive_seed(base_seed, "train", algo)

    matrix = build_train_matrix(split.train)
    models = train_portfolio(matrix, portfolio)
    pm = evaluate_portfolio(matrix, split.test, models, k=config.get("k", 10))

    pm_path = os.path.join(out_dir, "performance_matrix.csv")
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
    summary_path = os.path.join(out_dir, "ground_truth_summary.json")
    write_json(summary, summary_path)

    outputs = [pm_path, summary_path]
    if config.get("save_models", False):
        models_dir = os.path.join(out_dir, "models")
        os.makedirs(models_dir, exist_ok=True)
        for algo, model in models.items():
            model_path = os.path.join(models_dir, f"{algo}.pkl")
            save_model(model, model_path)
            outputs.append(model_path)
    return outputs


def _seedable_params(algorithm_id: str) -> set[str]:
    import inspect

    from .recommenders import _REGISTRY

    return set(inspect.signature(_REGISTRY[algorithm_id][0]).parameters)


def cmd_features(config: dict, out_dir: str, seed: int | None) -> list[str]:
    split = _split_from_config(config)
    portfolio = _portfolio_from_config(config.get("portfolio"))
    base_seed = _run_seed(config, seed)

    table = user_feature_table(split.train)
    user_path = os.path.join(out_dir, "user_features.csv")
    table.to_csv(user_path)

    probes = {}
    for entry in config.get("probes", []):
        name = _require(entry, "name")
        if "path" in entry:
            probe_ds = read_interactions_csv(entry["path"], name=name)
        else:
            kind = _require(entry, "kind")
            if kind not in PROBE_GENERATORS:
                raise ConfigError(f"unknown probe kind {kind!r}")
            probe_seed = entry.get("seed", derive_seed(base_seed, "probe", name))
            probe_ds = PROBE_GENERATORS[kind](seed=probe_seed, **dict(entry.get("params", {})))
        if "sample_users" in entry:
            probe_ds = sample_users(
                probe_ds, float(entry["sample_users"]), entry.get("sample_seed", derive_seed(base_seed, "sample", name))
            )
        probes[name] = temporal_split_per_user(probe_ds, entry.get("test_fraction", 0.2))

    algorithms = portfolio.ordered_ids()
    code, ast_metrics = static_metrics_for_portfolio(algorithms)
    timing = config.get("timing", "wall")
    landmarks = landmark_portfolio(
        probes,
        portfolio.algorithms,
        k=config.get("k", 10),
        timing=timing,
        time_runs=config.get("time_runs", 3),
    )
    tags = load_conceptual_map(algorithms, config.get("conceptual_map"))
    algo_table = assemble_algorithm_features(
        code, ast_metrics, landmarks, tags, algorithms, list(probes)
    )
    algo_path = os.path.join(out_dir, "algorithm_features.csv")
    algo_table.to_csv(algo_path)
    return [user_path, algo_path]


def _space_from_config(config: dict) -> SearchSpace:
    return SearchSpace.from_dict(config["space"]) if "space" in config else DEFAULT_SPACE


def _load_eval_inputs(config: dict, need_algo: bool):
    from .user_features import UserFeatureTable

    pm = PerformanceMatrix.from_csv(_require_path(config, "performance_matrix"))
    user_features = UserFeatureTable.from_csv(_require_path(config, "user_features"))
    featured = set(user_features.users)
    missing = [u for u in pm.users if u not in featured]
    if missing:
        raise SchemaError(
            f"{len(missing)} user(s) of the performance matrix have no row in "
            f"{config['user_features']}, first {missing[0]!r}"
        )
    algo_table = None
    if need_algo:
        from .algo_features import AlgorithmFeatureTable

        algo_table = AlgorithmFeatureTable.from_csv(_require_path(config, "algo_features"))
        unfeatured = [a for a in pm.algorithms if a not in algo_table.algorithms]
        if unfeatured:
            raise SchemaError(
                f"{len(unfeatured)} algorithm(s) of the performance matrix have no row in "
                f"{config['algo_features']}, first {unfeatured[0]!r}"
            )
    return pm, user_features, algo_table


def _write_report_files(out_dir: str, stem: str, report) -> list[str]:
    json_path = os.path.join(out_dir, f"{stem}.json")
    write_json(report.to_dict(), json_path)
    md_path = os.path.join(out_dir, f"{stem}.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(report.render_markdown())
    return [json_path, md_path]


def cmd_evaluate(config: dict, out_dir: str, seed: int | None, mode: str) -> list[str]:
    if mode not in ("user_only", "user_algo", "both"):
        raise ConfigError(f"--mode must be user_only, user_algo, or both, got {mode!r}")
    need_algo = mode in ("user_algo", "both")
    pm, user_features, algo_table = _load_eval_inputs(config, need_algo)
    space = _space_from_config(config)
    run_seed = _run_seed(config, seed)
    n_folds = _int_option(config, "folds", 10, 2)

    if mode == "both":
        report = run_full_evaluation(pm, user_features, algo_table, n_folds, space, run_seed)
        outputs = _write_report_files(out_dir, "evaluation_both", report)
        summary_csv = os.path.join(out_dir, "evaluation_both.csv")
        with open(summary_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "mean_ndcg", "ci_ndcg", "top1_pct", "top3_pct", "gap_closed_pct"])
            for label, rep in (("user_only", report.user_only), ("user_algo", report.user_algo)):
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

    report = run_nested_cv(pm, user_features, algo_table, mode, n_folds, space, run_seed)
    return _write_report_files(out_dir, f"evaluation_{mode}", report)


def cmd_ablate(config: dict, out_dir: str, seed: int | None) -> list[str]:
    pm, user_features, algo_table = _load_eval_inputs(config, need_algo=True)
    space = _space_from_config(config)
    run_seed = _run_seed(config, seed)
    sets = None
    if "category_sets" in config:
        sets = [frozenset(s) for s in config["category_sets"]]
    report = run_ablation(
        pm, user_features, algo_table, sets, _int_option(config, "folds", 5, 2), space, run_seed
    )
    return _write_report_files(out_dir, "ablation", report)


def cmd_importance(config: dict, out_dir: str, seed: int | None) -> list[str]:
    pm, user_features, algo_table = _load_eval_inputs(config, need_algo=True)
    run_seed = _run_seed(config, seed)
    params = GBDTParams.from_dict(config["params"]) if "params" in config else None
    report = run_importance(
        pm, user_features, algo_table, _int_option(config, "folds", 5, 2), params, run_seed
    )
    outputs = _write_report_files(out_dir, "importance", report)
    csv_path = os.path.join(out_dir, "importance.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_importance", "std_importance"])
        for name, mean, std in zip(report.feature_names, report.mean, report.std):
            writer.writerow([name, repr(float(mean)), repr(float(std))])
    outputs.append(csv_path)
    return outputs


def _input_paths(command: str, config: dict) -> list[str]:
    keys = {
        "ingest": ["path"],
        "ground-truth": ["dataset"],
        "features": ["dataset"],
        "evaluate": ["performance_matrix", "user_features", "algo_features"],
        "ablate": ["performance_matrix", "user_features", "algo_features"],
        "importance": ["performance_matrix", "user_features", "algo_features"],
    }.get(command, [])
    return [config[k] for k in keys if isinstance(config.get(k), str) and os.path.exists(config[k])]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recselect",
        description="Per-user recommender algorithm selection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_mode in [
        ("synth", False),
        ("ingest", False),
        ("ground-truth", False),
        ("features", False),
        ("evaluate", True),
        ("ablate", False),
        ("importance", False),
    ]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument("--out", required=True, help="output directory (created if absent)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        if needs_mode:
            cmd.add_argument(
                "--mode", default="both", choices=["user_only", "user_algo", "both"],
                help="which meta-learner variant(s) to evaluate",
            )
    return parser


HANDLERS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "ground-truth": cmd_ground_truth,
    "features": cmd_features,
    "ablate": cmd_ablate,
    "importance": cmd_importance,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        inputs = _input_paths(args.command, config)
        if args.command == "evaluate":
            outputs = cmd_evaluate(config, args.out, args.seed, args.mode)
        else:
            outputs = HANDLERS[args.command](config, args.out, args.seed)
        extra = {}
        if args.command in ("ground-truth", "features"):
            extra["unavailable_algorithms"] = _portfolio_from_config(config.get("portfolio")).unavailable
        if args.command == "features":
            extra["timing_mode"] = config.get("timing", "wall")
            extra["raw_timescale_features"] = list(RAW_TIMESCALE_FEATURES)
        _write_manifest(
            args.out,
            args.command,
            config,
            _run_seed(config, args.seed),
            inputs,
            [os.path.basename(p) for p in outputs],
            extra,
        )
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RecselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
