"""Command-line pipeline: synth, ingest, ground-truth, features, evaluate,
ablate, importance.

Every command takes --config (JSON), --out (directory), and optionally --seed
(overrides the config seed). It checks its config by the rules of
``recselect.config`` before it reads a dataset or writes a file. Each run
writes its artifacts plus a manifest recording the echoed config, the seeds
actually used, and SHA-256 hashes of every file the stage read, which
together reproduce the outputs exactly.
Exit codes: 0 on success, 2 for configuration problems, 1 for runtime
failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
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
from .config import (
    check_keys,
    check_parameters,
    expect,
    is_boolean,
    is_file_name,
    is_integer,
    is_number,
    keyword_defaults,
    load_config,
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
    save_model,
    train_algorithm,
    train_parameters,
)
from .synth import PROBE_GENERATORS, planted_two_population, sample_event_log, write_event_log
from .user_features import RAW_TIMESCALE_FEATURES, UserFeatureTable, user_feature_table

# Each synth kind's generator, and the function that writes what it generates.
SYNTH_KINDS = {
    "planted": (planted_two_population, write_interactions_csv),
    **{kind: (generator, write_interactions_csv) for kind, generator in PROBE_GENERATORS.items()},
    "event_log": (sample_event_log, write_event_log),
}
_REQUIRED = object()  # the default of a key the config must give


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Stage:
    """One command's config, output directory, seed and ``--mode``, and what it read.

    Each getter applies one rule of ``config`` to a key of the config, or of
    an ``entry`` in it. Handlers call the getters before they read a dataset
    and name every file they open through ``path`` where they read it, so
    ``inputs`` lists exactly the files the manifest hashes. They name every
    file they write through ``output``, which creates the output directory.
    ``manifest`` holds the stage's extra deterministic manifest fields.
    """

    def __init__(self, config: dict, out_dir: str, seed: int | None, mode: str | None = None):
        self.config = config
        self.out_dir = out_dir
        self.mode = mode
        self.inputs: list[str] = []
        self.manifest: dict = {}
        config_seed = self.integer("seed", 0, 0)  # checked also where ``--seed`` overrides it
        self.seed = config_seed if seed is None else expect("--seed", seed, lambda s: s >= 0, "an integer >= 0")

    def value(self, key: str, default, entry: dict | None, accepts, expected: str):
        """The value of ``key`` in ``entry`` (the config when None), else ``default``, once ``accepts`` holds."""
        source = self.config if entry is None else entry
        if default is _REQUIRED and key not in source:
            raise ConfigError(f"config is missing required key {key!r}")
        return expect(f"config key {key!r}", source.get(key, default), accepts, expected)

    def string(self, key: str, entry: dict | None = None) -> str:
        return self.value(key, _REQUIRED, entry, lambda v: isinstance(v, str), "a string")

    def optional_string(self, key: str) -> str | None:
        return self.value(key, None, None, lambda v: v is None or isinstance(v, str), "null or a string")

    def file_name(self, key: str, default=_REQUIRED, entry: dict | None = None) -> str:
        """A name that output files take, so it must stay inside the output directory."""
        return self.value(key, default, entry, is_file_name, "a file name without a path separator")

    def path(self, key: str, entry: dict | None = None) -> str:
        """The file path under ``key``, recorded as an input of this stage."""
        path = self.string(key, entry)
        self.inputs.append(path)
        return path

    def integer(self, key: str, default: int, minimum: int, entry: dict | None = None) -> int:
        return self.value(key, default, entry, lambda v: is_integer(v) and v >= minimum, f"an integer >= {minimum}")

    def fraction(self, key: str, default: float, entry: dict | None = None, one: bool = False) -> float:
        """A number in (0, 1), or in (0, 1] when ``one`` is set."""
        return self.value(key, default, entry, lambda v: is_number(v) and 0 < v and (v < 1 or one and v == 1),
                          f"a number in (0, 1{']' if one else ')'}")

    def boolean(self, key: str, default: bool) -> bool:
        return self.value(key, default, None, is_boolean, "true or false")

    def objects(self, key: str, default=_REQUIRED) -> list[dict]:
        return self.value(key, default, None, lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
                          "a list of objects")

    def portfolio(self) -> PortfolioConfig:
        """The ``portfolio`` given inline or as a file path, else the default one."""
        raw = self.config.get("portfolio")
        if isinstance(raw, str):
            raw = load_config(self.path("portfolio"))
        portfolio = PortfolioConfig() if raw is None else PortfolioConfig.from_dict(raw)
        self.manifest["unavailable_algorithms"] = portfolio.unavailable
        return portfolio

    def output(self, name: str) -> str:
        """The path of the output file ``name``; the output directory is created on the first call."""
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)


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
    write_json(manifest, stage.output(f"manifest_{command.replace('-', '_')}.json"))


def _generator(stage: Stage, entry: dict, kind: str, generator, default_seed: int):
    """``generator`` bound to the entry's checked ``params`` and its ``seed``, ready to call."""
    defaults = keyword_defaults(generator)
    del defaults["seed"]  # set by the entry's own ``seed``
    params = check_parameters(f"kind {kind!r}", entry.get("params", {}), defaults)
    return functools.partial(generator, seed=stage.integer("seed", default_seed, 0, entry), **params)


def cmd_synth(stage: Stage) -> list[str]:
    """Every entry is checked, and every dataset generated, before the first file is written."""
    planned = {}  # file name -> (generate, write)
    for entry in stage.objects("datasets"):
        check_keys("synth dataset entry", entry, ("kind", "name", "seed", "params"))
        kind = stage.string("kind", entry)
        if kind not in SYNTH_KINDS:
            raise ConfigError(f"unknown synth kind {kind!r}")
        name = stage.file_name("name", kind, entry)
        if f"{name}.csv" in planned:
            raise ConfigError(f"datasets use the name {name!r} in more than one entry")
        generator, write = SYNTH_KINDS[kind]
        planned[f"{name}.csv"] = (_generator(stage, entry, kind, generator, derive_seed(stage.seed, name)), write)
    generated = [(file, generate(), write) for file, (generate, write) in planned.items()]
    outputs = []
    for file, data, write in generated:
        outputs.append(stage.output(file))
        write(data, outputs[-1])
    return outputs


def cmd_ingest(stage: Stage) -> list[str]:
    name = stage.file_name("name")
    ingest_cfg = IngestConfig(
        name=name,
        user_col=stage.string("user_col"),
        item_col=stage.string("item_col"),
        rating_col=stage.optional_string("rating_col"),
        timestamp_col=stage.optional_string("timestamp_col"),
        event_weights=stage.value("event_weights", None, None, lambda v: v is None or isinstance(v, dict),
                                  "null or an object"),  # IngestConfig checks each weight
        dedup=stage.config.get("dedup", "sum"),  # IngestConfig checks it against DEDUP_MODES
    )
    min_interactions = stage.integer("min_interactions", 10, 1)
    dataset = filter_min_interactions(ingest_raw(stage.path("path"), ingest_cfg), min_interactions)
    stats = dataset_stats(dataset)

    clean_path = stage.output(f"{name}_clean.csv")
    write_interactions_csv(dataset, clean_path)
    stats_json = stage.output(f"{name}_stats.json")
    write_json({"dataset": name, **stats.as_dict()}, stats_json)
    stats_csv = stage.output(f"{name}_stats.csv")
    with open(stats_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "users", "items", "interactions", "sparsity"])
        writer.writerow([name, stats.users, stats.items, stats.interactions, f"{stats.sparsity:.6f}"])
    return [clean_path, stats_json, stats_csv]


def cmd_ground_truth(stage: Stage) -> list[str]:
    k = stage.integer("k", 10, 1)
    save_models = stage.boolean("save_models", False)
    portfolio = stage.portfolio()
    for algo, params in portfolio.algorithms.items():
        if "seed" in train_parameters(algo) and "seed" not in params:
            params["seed"] = derive_seed(stage.seed, "train", algo)
    test_fraction = stage.fraction("test_fraction", 0.2)
    split = temporal_split_per_user(read_interactions_csv(stage.path("dataset")), test_fraction)

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

    pm_path = stage.output("performance_matrix.csv")
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
    summary_path = stage.output("ground_truth_summary.json")
    write_json(summary, summary_path)

    outputs = [pm_path, summary_path]
    if save_models:
        outputs += [os.path.join(models_dir, f"{algo}.pkl") for algo in algorithms]
    return outputs


def _probe(stage: Stage, name: str, entry: dict):
    """The probe entry, checked, as a call that reads or generates its dataset and splits it."""
    source = ("path",) if "path" in entry else ("kind", "params", "seed")  # read or generated, never both
    check_keys(f"probe {name!r}", entry, ("name", "sample_users", "sample_seed", "test_fraction") + source)
    test_fraction = stage.fraction("test_fraction", 0.2, entry)
    sample = None
    if "sample_users" in entry:
        sample = (stage.fraction("sample_users", 1.0, entry, one=True),
                  stage.integer("sample_seed", derive_seed(stage.seed, "sample", name), 0, entry))
    if "path" in entry:
        load = functools.partial(read_interactions_csv, stage.path("path", entry), name=name)
    else:
        kind = stage.string("kind", entry)
        if kind not in PROBE_GENERATORS:
            raise ConfigError(f"unknown probe kind {kind!r}")
        load = _generator(stage, entry, kind, PROBE_GENERATORS[kind], derive_seed(stage.seed, "probe", name))

    def split():
        dataset = load() if sample is None else sample_users(load(), *sample)
        return temporal_split_per_user(dataset, test_fraction)
    return split


def cmd_features(stage: Stage) -> list[str]:
    k = stage.integer("k", 10, 1)
    portfolio = stage.portfolio()
    algorithms = portfolio.ordered_ids()
    conceptual = stage.config.get("conceptual_map")
    if isinstance(conceptual, str):
        conceptual = load_config(stage.path("conceptual_map"))
    tags = load_conceptual_map(algorithms, conceptual)
    test_fraction = stage.fraction("test_fraction", 0.2)
    probes = {}
    for entry in stage.objects("probes", []):
        name = stage.string("name", entry)
        if name in probes:
            raise ConfigError(f"probes use the name {name!r} in more than one entry")
        probes[name] = _probe(stage, name, entry)

    split = temporal_split_per_user(read_interactions_csv(stage.path("dataset")), test_fraction)
    table = user_feature_table(split.train)
    code, ast_metrics = static_metrics_for_portfolio(algorithms)
    landmarks = landmark_portfolio({name: load() for name, load in probes.items()}, portfolio.algorithms, k=k)
    algo_table = assemble_algorithm_features(
        code, ast_metrics, landmarks, tags, algorithms, list(probes)
    )
    user_path = stage.output("user_features.csv")
    table.to_csv(user_path)
    algo_path = stage.output("algorithm_features.csv")
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


def _write_report_files(stage: Stage, stem: str, report) -> list[str]:
    json_path = stage.output(f"{stem}.json")
    write_json(report.to_dict(), json_path)
    md_path = stage.output(f"{stem}.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(report.render_markdown())
    return [json_path, md_path]


def cmd_evaluate(stage: Stage) -> list[str]:
    """One ``run_nested_cv`` per reported mode, on the same folds, space and seed."""
    modes = MODES if stage.mode == "both" else (stage.mode,)
    space = _space(stage)
    n_folds = stage.integer("folds", 10, 2)
    pm, user_features, algo_table = _load_eval_inputs(stage, need_algo="user_algo" in modes)
    # Looked up on the module at call time, so a hook set on ``experiment.run_nested_cv``
    # (perfbench's tracer) sees each run, as it sees the runs inside ``run_ablation``.
    reports = [experiment.run_nested_cv(pm, user_features, algo_table, mode, n_folds, space, stage.seed)
               for mode in modes]
    if len(reports) == 1:
        return _write_report_files(stage, f"evaluation_{stage.mode}", reports[0])

    outputs = _write_report_files(stage, "evaluation_both", CombinedReport(*reports))
    summary_csv = stage.output("evaluation_both.csv")
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


def _is_category_sets(raw) -> bool:
    if not (isinstance(raw, list) and raw and all(isinstance(s, list) for s in raw)):
        return False
    return all(c in FEATURE_CATEGORIES for s in raw for c in s) and len(set(map(frozenset, raw))) == len(raw)


def cmd_ablate(stage: Stage) -> list[str]:
    sets = None
    if "category_sets" in stage.config:
        raw = stage.value("category_sets", _REQUIRED, None, _is_category_sets,
                          f"a non-empty list of distinct lists of feature categories {list(FEATURE_CATEGORIES)}")
        sets = [frozenset(s) for s in raw]
    n_folds, space = stage.integer("folds", 5, 2), _space(stage)
    pm, user_features, algo_table = _load_eval_inputs(stage)
    report = run_ablation(pm, user_features, algo_table, sets, n_folds, space, stage.seed)
    return _write_report_files(stage, "ablation", report)


def cmd_importance(stage: Stage) -> list[str]:
    params = stage.config.get("params", {})
    if isinstance(params, dict) and "seed" in params:
        raise ConfigError("importance 'params' takes no 'seed': each fold seeds its model from the run seed")
    params, n_folds = GBDTParams.from_dict(params), stage.integer("folds", 5, 2)
    pm, user_features, algo_table = _load_eval_inputs(stage)
    report = run_importance(pm, user_features, algo_table, n_folds, params, stage.seed)
    outputs = _write_report_files(stage, "importance", report)
    csv_path = stage.output("importance.csv")
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
        stage = Stage(load_config(args.config), args.out, args.seed, getattr(args, "mode", None))
        check_keys(f"{args.command} config", stage.config, ("seed",) + keys)
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
