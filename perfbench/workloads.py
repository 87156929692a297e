"""The two workloads: inputs from a seed, CLI stage calls, output checks.

Every stage runs through the public CLI entry point ``recselect.cli.main`` in
this process. Stage configs are the demo configs under ``configs/`` with their
``out/...`` paths moved into the run's work directory and the overrides below.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Output file each stage's digest is taken from, relative to its --out directory.
MAIN_OUTPUT = {
    "ground-truth": "performance_matrix.csv",
    "features": "user_features.csv",
    "evaluate": "evaluation_both.json",
    "importance": "importance.json",
}
# Span name of each traced stage call; its self time is the CLI's own work
# (config and CSV loading, input hashing, report writing).
STAGE_SPANS = {"ground-truth": "cli.groundtruth", "features": "cli.features",
               "evaluate": "cli.evaluate", "importance": "cli.importance"}
STAGE_DIRS = {"synth": "synth", "ground-truth": "ground_truth", "features": "features",
              "evaluate": "eval", "importance": "importance"}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _demo_config(name: str) -> dict:
    return json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def _relocate(value, work: Path):
    """Point the demo configs' ``out/<dir>/<file>`` paths into ``work``."""
    if isinstance(value, str) and value.startswith("out/"):
        return str(work / value[len("out/"):])
    if isinstance(value, dict):
        return {k: _relocate(v, work) for k, v in value.items()}
    if isinstance(value, list):
        return [_relocate(v, work) for v in value]
    return value


class StageCall:
    """One in-process ``cli.main`` call: exit code, wall and CPU seconds."""

    def __init__(self, stage: str, argv: list[str]):
        from recselect import cli

        gc.collect()  # start every call from a collected heap; steadies short calls
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.code = cli.main(argv)
            self.error = None if self.code == 0 else f"exit code {self.code}"
        except Exception as exc:  # a crash counts as one failed stage call
            self.code, self.error = None, f"{type(exc).__name__}: {exc}"
        self.wall_s = time.perf_counter() - started
        self.cpu_s = time.process_time() - cpu_started
        self.stage = stage
        self.ok = self.error is None


class Workload:
    """A seeded input set, the stages set-up runs, and the timed stages."""

    setup_stages: tuple[str, ...]
    timed_stages: tuple[str, ...]  # (gated as primary_stage_s, printed)

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size

    def configs(self) -> dict[str, dict]:
        """Stage -> config with ``out/`` paths still unrelocated."""
        synth = _demo_config("synth")
        datasets = []
        for entry in synth["datasets"]:
            if entry["kind"] == "planted":
                entry = {**entry, "seed": self.seed,
                         "params": {**entry.get("params", {}),
                                    "users_per_group": self.size["users_per_group"]}}
            elif entry["kind"] == "uniform_sparse":
                entry = {k: v for k, v in entry.items() if k != "seed"}  # derived from --seed
            else:
                continue  # the raw event log only feeds ``ingest``, which no workload times
            datasets.append(entry)
        return {"synth": {**synth, "datasets": datasets},
                "ground-truth": _demo_config("ground_truth"),
                "features": _demo_config("features")}

    def write_configs(self, work: Path, out_root: Path) -> dict[str, Path]:
        """Write each stage config, reading inputs from ``work`` and writing under ``out_root``."""
        paths = {}
        for stage, config in self.configs().items():
            config = _relocate(config, work)
            path = out_root / f"{STAGE_DIRS[stage]}.json"
            path.write_text(json.dumps(config, indent=2), encoding="utf-8")
            paths[stage] = path
        return paths

    def argv(self, stage: str, config: Path, out: Path) -> list[str]:
        argv = [stage, "--config", str(config), "--out", str(out)]
        if stage == "synth":
            argv += ["--seed", str(self.seed)]
        if stage == "evaluate":
            argv += ["--mode", "both"]
        return argv

    def run(self, stages, work: Path, out_root: Path, tracer=None) -> list[StageCall]:
        """Run ``stages`` in order; inputs come from ``work``, outputs go to ``out_root``.

        With a tracer, each stage call is one ``cli.<stage>`` span.
        """
        out_root.mkdir(parents=True, exist_ok=True)
        configs = self.write_configs(work, out_root)
        calls = []
        for stage in stages:
            argv = self.argv(stage, configs[stage], out_root / STAGE_DIRS[stage])
            with tracer.span(STAGE_SPANS[stage]) if tracer else contextlib.nullcontext():
                calls.append(StageCall(stage, argv))
            if not calls[-1].ok:
                break
        return calls

    def setup(self, work: Path) -> list[StageCall]:
        return self.run(("synth",) + self.setup_stages, work, work)

    def input_files(self, work: Path) -> list[Path]:
        """Generated inputs the timed stages read."""
        return [work / "synth" / "bench.csv", work / "synth" / "extra_probe.csv"]

    def deterministic_outputs(self, stage: str) -> list[str]:
        """Outputs of ``stage`` that a traced call must reproduce byte for byte."""
        return [MAIN_OUTPUT[stage]]

    def check_outputs(self, work: Path, out_root: Path) -> dict[str, bool]:
        """Named pass/fail checks on one pass's outputs."""
        raise NotImplementedError

    def check_once(self, work: Path, out_root: Path) -> dict[str, bool]:
        """Checks run once per benchmark run, outside the timed region."""
        return {}

    def results(self, work: Path, out_root: Path) -> dict:
        """Headline numbers of one pass's outputs, for the run record."""
        raise NotImplementedError


def _planted_checks(pm) -> dict[str, bool]:
    values = pm.values
    main = np.array([u.startswith("main") for u in pm.users])
    niche = np.array([u.startswith("niche") for u in pm.users])
    col = {a: i for i, a in enumerate(pm.algorithms)}
    shape_ok = (len(pm.algorithms) == 7 and values.shape == (len(pm.users), 7)
                and len(pm.users) > 0)
    planted = (
        shape_ok and main.any() and niche.any()
        and int(np.argmax(values[main].mean(axis=0))) == col["pop"]
        and values[niche, col["itemknn"]].mean() > values[niche, col["pop"]].mean()
    )
    vba = float(values.max(axis=1).mean()) if shape_ok else 0.0
    sba = float(values.mean(axis=0).max()) if shape_ok else 0.0
    return {
        "matrix_users_x_7": shape_ok,
        "matrix_in_unit_interval": bool(np.all(np.isfinite(values)) and values.min() >= 0.0
                                        and values.max() <= 1.0),
        "planted_structure": bool(planted),
        "vba_minus_sba_ge_0.02": vba - sba >= 0.02,
    }


def _no_landmark_failure(features_dir: Path) -> bool:
    from recselect.algo_features import AlgorithmFeatureTable

    table = AlgorithmFeatureTable.from_csv(features_dir / "algorithm_features.csv")
    return (len(table.algorithms) == 7
            and not any(n.startswith("landmark_failed_on_") for n in table.numeric_names))


class PortfolioGT(Workload):
    """Ground truth and features at ``users_per_group`` 400 (800 users, 5,120 items)."""

    setup_stages = ()
    timed_stages = ("ground-truth", "features")

    def configs(self):
        configs = super().configs()
        configs["features"].update(timing="wall", time_runs=3)
        return configs

    def check_outputs(self, work, out_root):
        from recselect.ground_truth import PerformanceMatrix

        checks = _planted_checks(PerformanceMatrix.from_csv(out_root / "ground_truth" / "performance_matrix.csv"))
        checks["no_landmark_failed"] = _no_landmark_failure(out_root / "features")
        return checks

    def results(self, work, out_root):
        summary = json.loads((out_root / "ground_truth" / "ground_truth_summary.json").read_text(encoding="utf-8"))
        return {k: summary[k] for k in ("n_users", "skipped_users", "sba_algorithm", "sba_mean_ndcg",
                                        "vba_mean_ndcg")}


class SelectorCV(Workload):
    """Nested-CV evaluation and importance on demo-style inputs built in set-up."""

    setup_stages = ("ground-truth", "features")
    timed_stages = ("evaluate", "importance")

    def configs(self):
        configs = super().configs()
        configs["features"].update(timing="off")  # deterministic inputs for the meta-learner
        configs["evaluate"] = {**_demo_config("ablate"), "folds": self.size["folds"]}
        configs["importance"] = _demo_config("importance")
        return configs

    def deterministic_outputs(self, stage):
        # Features run with timing off here, so the landmark and code-metric
        # table is deterministic too.
        extra = ["algorithm_features.csv"] if stage == "features" else []
        return super().deterministic_outputs(stage) + extra

    def input_files(self, work):
        return super().input_files(work) + [
            work / "ground_truth" / "performance_matrix.csv",
            work / "features" / "user_features.csv",
            work / "features" / "algorithm_features.csv",
        ]

    def check_outputs(self, work, out_root):
        report = json.loads((out_root / "eval" / "evaluation_both.json").read_text(encoding="utf-8"))
        gaps = [report[mode]["gap_closed_pct"] for mode in ("user_only", "user_algo")]
        importance = json.loads((out_root / "importance" / "importance.json").read_text(encoding="utf-8"))
        total = sum(f["mean"] for f in importance["features"])
        return {
            "gap_closed_recorded_both_modes": all(isinstance(g, float) and math.isfinite(g) for g in gaps),
            "importance_sums_to_one": abs(total - 1.0) < 1e-6,
        }

    def results(self, work, out_root):
        report = json.loads((out_root / "eval" / "evaluation_both.json").read_text(encoding="utf-8"))
        return {f"gap_closed_pct_{mode}": report[mode]["gap_closed_pct"]
                for mode in ("user_only", "user_algo")}

    def check_once(self, work, out_root):
        """Oracle and single-best selectors reproduce the evaluate report's VBA and SBA."""
        from recselect.algo_features import AlgorithmFeatureTable
        from recselect.experiment import SearchSpace, run_nested_cv
        from recselect.ground_truth import PerformanceMatrix
        from recselect.user_features import UserFeatureTable

        pm = PerformanceMatrix.from_csv(work / "ground_truth" / "performance_matrix.csv")
        user_features = UserFeatureTable.from_csv(work / "features" / "user_features.csv")
        algo_table = AlgorithmFeatureTable.from_csv(work / "features" / "algorithm_features.csv")
        config = self.configs()["evaluate"]
        space, folds, seed = SearchSpace.from_dict(config["space"]), config["folds"], config["seed"]
        cli_report = json.loads((out_root / "eval" / "evaluation_both.json").read_text(encoding="utf-8"))
        checks = {}
        for mode, table in (("user_only", None), ("user_algo", algo_table)):
            for predictor, reference in (("oracle", "vba"), ("single_best", "sba")):
                report = run_nested_cv(pm, user_features, table, mode, folds, space, seed, predictor)
                expected = cli_report[mode]["methods"][reference]
                checks[f"{predictor}_reproduces_{reference}_{mode}"] = (
                    report.methods["model"].fold_ndcg == expected["fold_ndcg"]
                    and report.methods[reference].fold_ndcg == expected["fold_ndcg"]
                )
        return checks


WORKLOADS = {"portfolio_gt": PortfolioGT, "selector_cv": SelectorCV}

SIZES = {
    "full": {"portfolio_gt": {"users_per_group": 400},
             "selector_cv": {"users_per_group": 50, "folds": 2}},
    "tiny": {"portfolio_gt": {"users_per_group": 30},
             "selector_cv": {"users_per_group": 30, "folds": 2}},
}
