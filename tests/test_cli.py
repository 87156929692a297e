"""End-to-end command-line pipeline on a miniature synthetic corpus.

One module-scoped run of synth -> ingest -> ground-truth -> features ->
evaluate -> ablate -> importance; the tests then assert on the artifacts,
manifests, exit codes, and rerun determinism.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recselect
import recselect.experiment as experiment
from recselect.cli import main
from recselect.data import read_interactions_csv, temporal_split_per_user
from recselect.experiment import derive_seed
from recselect.ground_truth import PerformanceMatrix
from recselect.pool import job_environment
from recselect.recommenders import (
    PortfolioConfig, algorithm_source_path, build_train_matrix, load_model, train_algorithm, train_parameters,
)
from recselect.user_features import RAW_TIMESCALE_FEATURES, USER_FEATURE_NAMES, UserFeatureTable
from recselect.algo_features import CATEGORICAL_NAMES, DEFAULT_CONCEPTUAL, AlgorithmFeatureTable

from conftest import assert_no_child_process, deadline, force_workers

LEAN_SPACE = {
    "n_iter": 2,
    "inner_folds": 2,
    "distributions": {
        "num_trees": {"type": "int_range", "low": 10, "high": 15},
        "learning_rate": {"type": "log_uniform", "low": 0.1, "high": 0.3},
        "max_depth": {"type": "int_range", "low": 2, "high": 3},
    },
}


def write_config(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def run_cli(args, capsys=None):
    code = main(args)
    return code


def run_pipeline(root):
    """Every CLI stage, run once at miniature scale, with every config and output under ``root``."""
    cfg_dir = os.path.join(root, "configs")
    os.makedirs(cfg_dir)

    synth_out = os.path.join(root, "synth")
    synth_cfg = write_config(cfg_dir, "synth.json", {
        "seed": 0,
        "datasets": [
            {"kind": "planted", "name": "bench", "seed": 2024,
             "params": {"users_per_group": 16, "head_items": 8, "clusters": 4, "cluster_size": 12}},
            {"kind": "uniform_sparse", "name": "probe_csv", "seed": 3,
             "params": {"n_users": 20, "n_items": 30, "per_user": 6}},
            {"kind": "event_log", "name": "raw_events", "seed": 11, "params": {"n_rows": 120}},
        ],
    })
    assert main(["synth", "--config", synth_cfg, "--out", synth_out]) == 0

    ingest_out = os.path.join(root, "ingest")
    ingest_cfg = write_config(cfg_dir, "ingest.json", {
        "path": os.path.join(synth_out, "raw_events.csv"),
        "name": "retail",
        "user_col": "visitor_id",
        "item_col": "item_sku",
        "rating_col": "event",
        "timestamp_col": "server_ts",
        "event_weights": {"view": 1.0, "addtocart": 2.0, "transaction": 4.0},
        "dedup": "sum",
        "min_interactions": 2,
    })
    assert main(["ingest", "--config", ingest_cfg, "--out", ingest_out]) == 0

    bench_csv = os.path.join(synth_out, "bench.csv")
    portfolio = {
        "algorithms": [
            "pop",
            {"name": "itemknn", "params": {"neighbors": 10}},
            {"name": "bpr", "params": {"factors": 4, "epochs": 5}},
            {"name": "ease", "params": {"l2": 2.0}},
            {"name": "fism", "status": "unavailable", "reason": "no reference implementation shipped"},
        ]
    }
    gt_out = os.path.join(root, "gt")
    gt_cfg = write_config(cfg_dir, "gt.json", {
        "dataset": bench_csv, "test_fraction": 0.2, "portfolio": portfolio,
        "k": 10, "seed": 1, "save_models": True,
    })
    assert main(["ground-truth", "--config", gt_cfg, "--out", gt_out]) == 0

    feat_out = os.path.join(root, "features")
    feat_cfg = write_config(cfg_dir, "features.json", {
        "dataset": bench_csv,
        "portfolio": portfolio,
        "seed": 1,
        "probes": [
            {"name": "skewed", "kind": "popularity_skewed",
             "params": {"n_users": 20, "n_items": 15, "per_user": 5}},
            {"name": "fromfile", "path": os.path.join(synth_out, "probe_csv.csv")},
        ],
    })
    assert main(["features", "--config", feat_cfg, "--out", feat_out]) == 0

    eval_out = os.path.join(root, "eval")
    eval_cfg = write_config(cfg_dir, "eval.json", {
        "performance_matrix": os.path.join(gt_out, "performance_matrix.csv"),
        "user_features": os.path.join(feat_out, "user_features.csv"),
        "algo_features": os.path.join(feat_out, "algorithm_features.csv"),
        "space": LEAN_SPACE, "folds": 3, "seed": 2,
    })
    assert main(["evaluate", "--config", eval_cfg, "--out", eval_out]) == 0

    ablate_out = os.path.join(root, "ablate")
    ablate_cfg = write_config(cfg_dir, "ablate.json", {
        "performance_matrix": os.path.join(gt_out, "performance_matrix.csv"),
        "user_features": os.path.join(feat_out, "user_features.csv"),
        "algo_features": os.path.join(feat_out, "algorithm_features.csv"),
        "space": LEAN_SPACE, "folds": 2, "seed": 2,
        "category_sets": [[], ["Code"]],
    })
    assert main(["ablate", "--config", ablate_cfg, "--out", ablate_out]) == 0

    imp_out = os.path.join(root, "importance")
    imp_cfg = write_config(cfg_dir, "importance.json", {
        "performance_matrix": os.path.join(gt_out, "performance_matrix.csv"),
        "user_features": os.path.join(feat_out, "user_features.csv"),
        "algo_features": os.path.join(feat_out, "algorithm_features.csv"),
        "folds": 2, "seed": 2,
        "params": {"num_trees": 10, "max_depth": 2},
    })
    assert main(["importance", "--config", imp_cfg, "--out", imp_out]) == 0

    return {
        "root": str(root), "cfg_dir": cfg_dir,
        "synth_out": synth_out, "synth_cfg": synth_cfg,
        "ingest_out": ingest_out, "ingest_cfg": ingest_cfg,
        "gt_out": gt_out, "gt_cfg": gt_cfg,
        "feat_out": feat_out, "feat_cfg": feat_cfg,
        "eval_out": eval_out, "eval_cfg": eval_cfg,
        "ablate_out": ablate_out, "ablate_cfg": ablate_cfg,
        "imp_out": imp_out, "imp_cfg": imp_cfg,
        "bench_csv": bench_csv,
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(str(tmp_path_factory.mktemp("cli")))


class TestSynthCommand:
    def test_writes_datasets_and_manifest(self, pipeline):
        out = pipeline["synth_out"]
        for name in ("bench.csv", "probe_csv.csv", "raw_events.csv", "manifest_synth.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_manifest_echoes_config_and_hash(self, pipeline):
        with open(os.path.join(pipeline["synth_out"], "manifest_synth.json")) as fh:
            manifest = json.load(fh)
        with open(pipeline["synth_cfg"]) as fh:
            config = json.load(fh)
        assert manifest["config"] == config
        want = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
        assert manifest["config_sha256"] == want
        assert manifest["outputs"] == sorted(["bench.csv", "probe_csv.csv", "raw_events.csv"])
        assert manifest["seed_used"] == 0
        assert "timestamp" not in json.dumps(manifest).lower()

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        cfg = write_config(str(tmp_path), "bad.json", {"datasets": [{"kind": "fractal"}]})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"kind": 3}, {"kind": "planted", "name": ["bench"]}, {"kind": "planted", "seed": "s"},
        {"kind": "uniform_sparse", "params": {"users": 5}}, {"kind": "uniform_sparse", "params": {"seed": 5}},
        {"kind": "uniform_sparse", "params": {"n_users": "5"}}, {"kind": "event_log", "params": []},
    ])
    def test_bad_dataset_entry_exits_2_with_one_config_error_line(self, tmp_path, capsys, entry):
        cfg = write_config(str(tmp_path), "bad.json", {"datasets": [entry]})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestIngestCommand:
    def test_outputs_exist(self, pipeline):
        out = pipeline["ingest_out"]
        for name in ("retail_clean.csv", "retail_stats.json", "retail_stats.csv", "manifest_ingest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_stats_are_consistent(self, pipeline):
        with open(os.path.join(pipeline["ingest_out"], "retail_stats.json")) as fh:
            stats = json.load(fh)
        assert stats["dataset"] == "retail"
        assert stats["users"] > 0
        assert 0.0 <= stats["sparsity"] < 1.0
        with open(os.path.join(pipeline["ingest_out"], "retail_stats.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "users", "items", "interactions", "sparsity"]
        assert int(rows[1][1]) == stats["users"]

    def test_event_weights_become_the_ratings(self, pipeline, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("visitor_id,event,item_sku,server_ts\n"
                       "v1,view,s1,10\nv1,addtocart,s2,20\nv1,transaction,s3,30\n")
        cfg = rerun_config(pipeline, "ingest_cfg", {"path": str(raw), "min_interactions": 1}, tmp_path)
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "retail_clean.csv") as fh:
            ratings = {row["item"]: float(row["rating"]) for row in csv.DictReader(fh)}
        assert ratings == {"s1": 1.0, "s2": 2.0, "s3": 4.0}

    def test_manifest_hashes_the_raw_input(self, pipeline):
        with open(os.path.join(pipeline["ingest_out"], "manifest_ingest.json")) as fh:
            manifest = json.load(fh)
        raw_path = os.path.join(pipeline["synth_out"], "raw_events.csv")
        with open(raw_path, "rb") as fh:
            want = hashlib.sha256(fh.read()).hexdigest()
        assert manifest["inputs"][raw_path] == want


class TestGroundTruthCommand:
    def test_matrix_loads_with_portfolio_columns(self, pipeline):
        pm = PerformanceMatrix.from_csv(os.path.join(pipeline["gt_out"], "performance_matrix.csv"))
        assert pm.algorithms == ["pop", "itemknn", "bpr", "ease"]
        assert len(pm.users) == 32
        assert np.isfinite(pm.values).all()
        assert (pm.values >= 0).all() and (pm.values <= 1).all()

    def test_summary_reports_baselines(self, pipeline):
        with open(os.path.join(pipeline["gt_out"], "ground_truth_summary.json")) as fh:
            summary = json.load(fh)
        assert summary["n_users"] == 32
        assert summary["sba_algorithm"] in summary["column_mean_ndcg"]
        sba, vba = summary["sba_mean_ndcg"], summary["vba_mean_ndcg"]
        assert vba >= sba
        if vba > sba > 0:
            assert summary["gap_potential_pct"] == pytest.approx(100.0 * (vba - sba) / sba)
        else:
            assert summary["gap_potential_pct"] is None

    def test_models_saved_when_requested(self, pipeline):
        models = os.path.join(pipeline["gt_out"], "models")
        assert sorted(os.listdir(models)) == ["bpr.pkl", "ease.pkl", "itemknn.pkl", "pop.pkl"]

    def test_rerun_with_same_seed_is_byte_identical(self, pipeline, tmp_path):
        out2 = str(tmp_path / "gt2")
        assert main(["ground-truth", "--config", pipeline["gt_cfg"], "--out", out2]) == 0
        for name in ("performance_matrix.csv", "manifest_ground_truth.json"):
            a = open(os.path.join(pipeline["gt_out"], name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_seed_override_changes_seeded_training(self, pipeline, tmp_path):
        out3 = str(tmp_path / "gt3")
        assert main(["ground-truth", "--config", pipeline["gt_cfg"], "--out", out3, "--seed", "77"]) == 0
        pm_a = PerformanceMatrix.from_csv(os.path.join(pipeline["gt_out"], "performance_matrix.csv"))
        pm_b = PerformanceMatrix.from_csv(os.path.join(out3, "performance_matrix.csv"))
        bpr_col = pm_a.algorithms.index("bpr")
        pop_col = pm_a.algorithms.index("pop")
        np.testing.assert_array_equal(pm_a.values[:, pop_col], pm_b.values[:, pop_col])
        assert not np.array_equal(pm_a.values[:, bpr_col], pm_b.values[:, bpr_col])
        with open(os.path.join(out3, "manifest_ground_truth.json")) as fh:
            assert json.load(fh)["seed_used"] == 77

    def test_missing_dataset_file_exits_1(self, tmp_path, capsys):
        cfg = write_config(str(tmp_path), "gt.json", {"dataset": str(tmp_path / "ghost.csv")})
        assert main(["ground-truth", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_non_finite_scores_exit_1_with_one_error_line(self, pipeline, tmp_path, capsys, monkeypatch):
        from recselect.recommenders.pop import PopularityModel

        def nan_scores(self, idx):
            scores = np.tile(self.item_scores, (len(idx), 1))
            scores[:, 0] = np.nan
            return scores

        monkeypatch.setattr(PopularityModel, "score_users", nan_scores)
        capsys.readouterr()
        assert main(["ground-truth", "--config", pipeline["gt_cfg"], "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pop produced non-finite scores for user ")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("out_key, manifest", [("gt_out", "manifest_ground_truth.json"),
                                                ("feat_out", "manifest_features.json")])
def test_manifest_lists_the_unavailable_algorithms_with_their_reasons(pipeline, out_key, manifest):
    with open(os.path.join(pipeline[out_key], manifest)) as fh:
        unavailable = json.load(fh)["unavailable_algorithms"]
    assert unavailable == {
        "fism": "no reference implementation shipped",
        "line": "no maintained implementation available",
        "fpmc": "no maintained implementation available",
    }


STAGE_CONFIGS = {"synth": "synth_cfg", "ingest": "ingest_cfg", "ground-truth": "gt_cfg", "features": "feat_cfg"}


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rerun_config(pipeline, cfg_key, changes, tmp_path):
    """The pipeline's config for one stage with ``changes`` applied, written under tmp_path."""
    with open(pipeline[cfg_key]) as fh:
        config = {**json.load(fh), **changes}
    return write_config(str(tmp_path), os.path.basename(pipeline[cfg_key]), config)


@pytest.mark.parametrize("command", ["features", "ground-truth", "evaluate"])
def test_manifest_inputs_are_exactly_the_files_the_stage_read(pipeline, tmp_path, command):
    probe_csv = os.path.join(pipeline["synth_out"], "probe_csv.csv")
    if command == "features":
        cmap = write_config(str(tmp_path), "conceptual.json", DEFAULT_CONCEPTUAL)
        changes = {"portfolio": {"algorithms": ["pop"]}, "conceptual_map": cmap,
                   "probes": [{"name": "fromfile", "path": probe_csv}]}
        cfg, read, args = "feat_cfg", [pipeline["bench_csv"], probe_csv, cmap], []
    elif command == "ground-truth":
        portfolio = write_config(str(tmp_path), "portfolio.json", {"algorithms": ["pop", "itemknn"]})
        cfg, read, args = "gt_cfg", [pipeline["bench_csv"], portfolio], []
        changes = {"portfolio": portfolio, "save_models": False}
    else:
        changes = {"folds": 2}
        read = [os.path.join(pipeline["gt_out"], "performance_matrix.csv"),
                os.path.join(pipeline["feat_out"], "user_features.csv")]
        cfg, args = "eval_cfg", ["--mode", "user_only"]
    out = str(tmp_path / "o")
    assert main([command, "--config", rerun_config(pipeline, cfg, changes, tmp_path),
                 "--out", out, *args]) == 0
    with open(os.path.join(out, f"manifest_{command.replace('-', '_')}.json")) as fh:
        inputs = json.load(fh)["inputs"]
    assert inputs == {path: sha256_of(path) for path in read}


@pytest.mark.parametrize("command, changes", [
    ("ground-truth", {"portfolio": {"algorithms": ["pop", {"params": {"neighbors": 5}}]}}),
    ("ground-truth", {"test_fraction": "x"}),
    ("ground-truth", {"k": "ten"}),
    ("ground-truth", {"portfolio": {"algorithms": [{"name": "ease", "params": {"lambda": 2.0}}]}}),
    ("features", {"portfolio": {"algorithms": [{"name": "ease", "params": {"lambda": 2.0}}]}}),
    ("ground-truth", {"portfolio": 5}),
    ("features", {"portfolio": {"algorithms": ["pop", {"name": "ease", "params": {"l2": -1.0}}]}}),
    ("ingest", {"event_weights": 3}),
    ("ingest", {"timestamp_col": ["server_ts"]}),
    ("ingest", {"rating_col": None}),  # event weights with no event column to map
    ("ground-truth", {"portfolio": {"algorithms": [{"name": "itemknn", "params": {"neighbors": 5}},
                                                   {"name": "itemknn", "params": {"neighbors": 50}}]}}),
    ("features", {"portfolio": {"algorithms": ["pop", "ease", {"name": "pop", "status": "unavailable"}]}}),
    ("ground-truth", {"save_models": "false"}),
    ("features", {"probes": [{"name": "p", "kind": "uniform_sparse",
                              "params": {"n_users": 10, "n_items": 12, "per_user": 4}}] * 2}),
    ("synth", {"datasets": [{"kind": "event_log", "name": "bench", "params": {"n_rows": 5}},
                            {"kind": "uniform_sparse", "name": "bench"}]}),
    ("ground-truth", {"portfolio": {"algorithms": [{"name": "itemknn", "parms": {"neighbors": 5}}]}}),
    ("features", {"portfolio": {"algorithms": ["pop"], "algoritms": ["ease"]}}),
    ("features", {"probes": [{"name": "p", "kind": "uniform_sparse", "param": {"n_users": 10}}]}),
    ("synth", {"datasets": [{"kind": "uniform_sparse", "name": "u", "sead": 3}]}),
    ("features", {"probes": [{"name": "p", "path": "probe.csv", "kind": "uniform_sparse"}]}),
    ("features", {"probes": [{"name": "p", "path": "probe.csv", "params": {"n_users": 10}}]}),
    ("features", {"probes": [{"name": "p", "path": "probe.csv", "seed": 3}]}),
    ("features", {"portfolio": {"algorithms": ["pop", {"name": "fism", "status": "unavailable",
                                                       "params": {"factors": 8}}]}}),
    ("ground-truth", {"portfolio": {"algorithms": [{"name": "pop", "reason": "fast"}]}}),
])
def test_bad_stage_config_exits_2_with_one_config_error_line(pipeline, tmp_path, capsys, command, changes):
    cfg = rerun_config(pipeline, STAGE_CONFIGS[command], changes, tmp_path)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_a_cli_process_never_imports_scipy_stats(pipeline, tmp_path):
    """Confidence intervals need only ``scipy.special``. The test suite imports
    ``scipy.stats`` as their reference, so a fresh interpreter runs the stage."""
    script = ("import sys; from recselect.cli import main; assert main(sys.argv[1:]) == 0; "
              "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    pythonpath = os.path.dirname(os.path.dirname(recselect.__file__))
    done = subprocess.run([sys.executable, "-c", script, "synth", "--config", pipeline["synth_cfg"],
                           "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": pythonpath}, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"


EVERY_COMMAND_CONFIG = [
    ("synth", "synth_cfg"), ("ingest", "ingest_cfg"), ("ground-truth", "gt_cfg"), ("features", "feat_cfg"),
    ("evaluate", "eval_cfg"), ("ablate", "ablate_cfg"), ("importance", "imp_cfg"),
]


@pytest.mark.parametrize("command, cfg_key", EVERY_COMMAND_CONFIG)
def test_negative_seed_override_exits_2_naming_the_flag(pipeline, tmp_path, capsys, command, cfg_key):
    capsys.readouterr()
    assert main([command, "--config", pipeline[cfg_key], "--out", str(tmp_path / "o"), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: --seed must be an integer >= 0, found -3\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, cfg_key", EVERY_COMMAND_CONFIG)
def test_bad_config_seed_exits_2_also_under_a_seed_override(pipeline, tmp_path, capsys, command, cfg_key):
    cfg = rerun_config(pipeline, cfg_key, {"seed": "x"}, tmp_path)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config key 'seed' must be an integer >= 0, found 'x'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ground-truth", "features"])
def test_one_interaction_user_exits_1_with_one_error_line(pipeline, tmp_path, capsys, command):
    dataset = tmp_path / "bench.csv"
    with open(pipeline["bench_csv"], encoding="utf-8") as fh:
        dataset.write_text(fh.read() + "lonely,i0,1.0,0\n", encoding="utf-8")
    cfg = rerun_config(pipeline, STAGE_CONFIGS[command], {"dataset": str(dataset)}, tmp_path)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: user 'lonely' ") and err.count("\n") == 1 and "Traceback" not in err


class TestFeaturesCommand:
    def test_user_table_covers_all_users(self, pipeline):
        table = UserFeatureTable.from_csv(os.path.join(pipeline["feat_out"], "user_features.csv"))
        assert len(table.users) == 32
        assert table.names == USER_FEATURE_NAMES

    def test_algo_table_has_probe_columns(self, pipeline):
        table = AlgorithmFeatureTable.from_csv(
            os.path.join(pipeline["feat_out"], "algorithm_features.csv")
        )
        assert table.algorithms == ["pop", "itemknn", "bpr", "ease"]
        for probe in ("skewed", "fromfile"):
            for prefix in ("perf_on_", "traintime_on_", "predtime_on_"):
                assert f"{prefix}{probe}" in table.numeric_names
        cost_cols = [n for n in table.numeric_names if n.startswith(("traintime", "predtime"))]
        costs = table.numeric[:, [table.numeric_names.index(c) for c in cost_cols]]
        assert len(cost_cols) == 4 and np.all(costs > 0) and np.all(costs == np.round(costs))

    def test_manifest_records_timing_and_flagged_features(self, pipeline):
        with open(os.path.join(pipeline["feat_out"], "manifest_features.json")) as fh:
            manifest = json.load(fh)
        assert manifest["raw_timescale_features"] == list(RAW_TIMESCALE_FEATURES)

    def test_manifest_hashes_each_measured_source_by_package_path(self, pipeline):
        with open(os.path.join(pipeline["feat_out"], "manifest_features.json")) as fh:
            sources = json.load(fh)["algorithm_sources"]
        algorithms = ["pop", "itemknn", "bpr", "ease"]
        assert sources == {f"recommenders/{a}.py": sha256_of(algorithm_source_path(a)) for a in algorithms}

    def test_editing_a_copied_source_changes_its_hash(self, pipeline, tmp_path):
        package = os.path.dirname(recselect.__file__)
        copy = tmp_path / "copy"
        shutil.copytree(package, copy / "recselect", ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "recselect" / "recommenders" / "pop.py", "a", encoding="utf-8") as fh:
            fh.write("# edited\n")
        changes = {"portfolio": {"algorithms": ["pop", "ease"]}, "probes": []}
        cfg = rerun_config(pipeline, "feat_cfg", changes, tmp_path)
        manifests = []
        for run, pythonpath in (("here", os.path.dirname(package)), ("copy", str(copy))):
            out = tmp_path / run
            subprocess.run([sys.executable, "-m", "recselect.cli", "features", "--config", cfg, "--out", str(out)],
                           env={**os.environ, "PYTHONPATH": pythonpath}, check=True, capture_output=True)
            with open(out / "manifest_features.json") as fh:
                manifests.append(json.load(fh))
        here, edited = (m["algorithm_sources"] for m in manifests)
        assert edited["recommenders/pop.py"] == sha256_of(copy / "recselect" / "recommenders" / "pop.py")
        assert edited["recommenders/pop.py"] != here["recommenders/pop.py"]
        assert edited["recommenders/ease.py"] == here["recommenders/ease.py"]

    def test_whole_pipeline_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        """Two fresh runs of every stage give the same reports and manifests, byte for byte.

        Each run works in its own directory under relative paths, so the
        manifests, which echo the configs and key their hashes by path, can match.
        """
        reports = ["algorithm_features.csv", "evaluation_both.json", "evaluation_both.md", "evaluation_both.csv",
                   "ablation.json", "ablation.md", "importance.json", "importance.csv", "importance.md"]
        runs = []
        for run in ("a", "b"):
            os.makedirs(tmp_path / run)
            monkeypatch.chdir(tmp_path / run)
            dirs = [d for key, d in run_pipeline(".").items() if key.endswith("_out")]
            runs.append({name: pathlib.Path(d, name).read_bytes()
                         for d in dirs for name in os.listdir(d)
                         if name in reports or name.startswith("manifest_")})
        assert sorted(runs[0]) == sorted(reports + [f"manifest_{c}.json" for c in (
            "synth", "ingest", "ground_truth", "features", "evaluate", "ablate", "importance")])
        for name in runs[0]:
            assert runs[0][name] == runs[1][name], name


# biasedmf's SGD overflows at this learning rate, so its landmarks fail and are flagged.
DIVERGING_PORTFOLIO = {"algorithms": ["pop", {"name": "biasedmf", "params": {"lr": 1000.0, "epochs": 3}},
                                      {"name": "ease", "params": {"l2": 2.0}}]}


class TestParallelJobs:
    @pytest.mark.parametrize("command, changes, names", [
        ("ground-truth", {}, ["performance_matrix.csv", "ground_truth_summary.json"]),
        ("features", {}, ["user_features.csv", "algorithm_features.csv"]),
        ("features", {"portfolio": DIVERGING_PORTFOLIO}, ["user_features.csv", "algorithm_features.csv"]),
    ], ids=["ground-truth", "features", "features-with-a-diverging-landmark"])
    def test_one_and_two_workers_write_the_same_bytes(self, pipeline, tmp_path, monkeypatch, command, changes, names):
        runs = []
        for n_workers in (1, 2):
            force_workers(monkeypatch, n_workers)
            cfg = rerun_config(pipeline, STAGE_CONFIGS[command], changes, tmp_path)
            out = tmp_path / f"workers{n_workers}"
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]
        if "portfolio" in changes:
            assert b"landmark_failed_on_" in runs[0]["algorithm_features.csv"]

    def test_a_worker_killed_mid_job_exits_1_with_one_error_line(self, pipeline, tmp_path, capsys, monkeypatch):
        from recselect.recommenders.pop import PopularityModel

        here = os.getpid()

        def die(self, idx):
            if os.getpid() == here:
                raise AssertionError("pop scored in the calling process")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(PopularityModel, "score_users", die)
        force_workers(monkeypatch, 2)
        capsys.readouterr()
        with deadline(60):
            assert main(["ground-truth", "--config", pipeline["gt_cfg"], "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: the worker process running job 0 was killed by signal 9 before returning a result\n"
        assert_no_child_process()

    def test_models_pickled_by_workers_score_as_models_trained_here(self, pipeline, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        out = tmp_path / "gt"
        assert main(["ground-truth", "--config", pipeline["gt_cfg"], "--out", str(out)]) == 0
        job_environment()  # "here" trains as a job does, whatever ran in this process before
        with open(pipeline["gt_cfg"]) as fh:
            config = json.load(fh)
        assert config["save_models"] is True
        split = temporal_split_per_user(read_interactions_csv(config["dataset"]), config["test_fraction"])
        matrix = build_train_matrix(split.train)
        everyone = np.arange(matrix.n_users)
        for algo, params in PortfolioConfig.from_dict(config["portfolio"]).algorithms.items():
            if "seed" in train_parameters(algo):
                params = {**params, "seed": derive_seed(config["seed"], "train", algo)}
            loaded = load_model(str(out / "models" / f"{algo}.pkl")).score_users(everyone)
            here = train_algorithm(algo, matrix, params).score_users(everyone)
            assert (loaded.dtype, loaded.shape, loaded.tobytes()) == (here.dtype, here.shape, here.tobytes()), algo

    def test_saved_models_do_not_depend_on_the_blas_thread_count_or_the_pool(self, pipeline, tmp_path):
        """``ease`` alone is one job, run in the calling process; with ``pop`` it runs in a worker
        wherever two CPUs are usable. OpenBLAS reads its thread count when it loads, so each run
        is a fresh interpreter."""
        pythonpath = os.path.dirname(os.path.dirname(recselect.__file__))
        ease = {"name": "ease", "params": {"l2": 2.0}}
        pickles, scores = {}, {}
        for portfolio in ([ease], ["pop", ease]):
            for threads in ("1", "2"):
                run = f"{len(portfolio)}algos_{threads}threads"
                cfg = rerun_config(pipeline, "gt_cfg", {"portfolio": {"algorithms": portfolio}}, tmp_path)
                subprocess.run([sys.executable, "-m", "recselect.cli", "ground-truth", "--config", cfg,
                                "--out", str(tmp_path / run)], check=True, capture_output=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads})
                path = tmp_path / run / "models" / "ease.pkl"
                pickles[run] = path.read_bytes()
                model = load_model(str(path))
                scores[run] = model.score_users(np.arange(model.matrix.n_users)).tobytes()
        for outputs in (pickles, scores):
            digests = {run: hashlib.sha256(data).hexdigest()[:12] for run, data in outputs.items()}
            assert len(set(digests.values())) == 1, digests


class TestEvaluateCommand:
    def test_both_mode_writes_json_md_csv(self, pipeline):
        out = pipeline["eval_out"]
        for name in ("evaluation_both.json", "evaluation_both.md", "evaluation_both.csv", "manifest_evaluate.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_json_contains_both_modes_with_gap(self, pipeline):
        with open(os.path.join(pipeline["eval_out"], "evaluation_both.json")) as fh:
            payload = json.load(fh)
        assert set(payload) == {"user_only", "user_algo"}
        for key in ("user_only", "user_algo"):
            assert set(payload[key]["methods"]) == {"sba", "vba", "model"}
            assert payload[key]["n_folds"] == 3

    def test_csv_summarizes_the_two_models(self, pipeline):
        with open(os.path.join(pipeline["eval_out"], "evaluation_both.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "method"
        assert [r[0] for r in rows[1:]] == ["M(User-Only)", "M(User+Algo)"]

    def test_single_mode_run(self, pipeline, tmp_path):
        out = str(tmp_path / "eval_uo")
        assert main([
            "evaluate", "--config", pipeline["eval_cfg"], "--out", out, "--mode", "user_only",
        ]) == 0
        assert os.path.exists(os.path.join(out, "evaluation_user_only.json"))
        assert not os.path.exists(os.path.join(out, "evaluation_user_only.csv"))

    def test_each_mode_is_one_nested_cv_run_and_single_modes_equal_the_halves_of_both(
            self, pipeline, tmp_path, monkeypatch):
        modes, original = [], experiment.run_nested_cv

        def spy(*args):
            modes.append(args[3])
            return original(*args)

        # The call must go through the module attribute, where perfbench's tracer hooks it.
        monkeypatch.setattr(experiment, "run_nested_cv", spy)
        reports = {}
        for mode in ("both", "user_only", "user_algo"):
            out = tmp_path / mode
            assert main(["evaluate", "--config", pipeline["eval_cfg"], "--out", str(out), "--mode", mode]) == 0
            with open(out / f"evaluation_{mode}.json") as fh:
                reports[mode] = json.load(fh)
        assert modes == ["user_only", "user_algo", "user_only", "user_algo"]
        assert reports["user_only"] == reports["both"]["user_only"]
        assert reports["user_algo"] == reports["both"]["user_algo"]

    def test_non_finite_matrix_cell_exits_1_with_one_error_line(self, pipeline, tmp_path, capsys):
        with open(os.path.join(pipeline["gt_out"], "performance_matrix.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][1] = "nan"
        bad_matrix = tmp_path / "performance_matrix.csv"
        with open(bad_matrix, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with open(pipeline["eval_cfg"]) as fh:
            config = json.load(fh)
        config["performance_matrix"] = str(bad_matrix)
        cfg = write_config(str(tmp_path), "eval.json", config)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("corruption", ["nan_cell", "text_cell", "repeated_user", "ragged_row", "missing_user"])
    def test_malformed_user_features_exit_1_with_one_error_line(self, pipeline, tmp_path, capsys, corruption):
        with open(os.path.join(pipeline["feat_out"], "user_features.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if corruption == "nan_cell":
            rows[1][3] = "nan"
        elif corruption == "text_cell":
            rows[1][3] = "tall"
        elif corruption == "repeated_user":
            rows[2][0] = rows[1][0]
        elif corruption == "ragged_row":
            rows[1] = rows[1][:-1]
        else:
            del rows[1]
        bad_table = tmp_path / "user_features.csv"
        with open(bad_table, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with open(pipeline["eval_cfg"]) as fh:
            config = json.load(fh)
        config["user_features"] = str(bad_table)
        cfg = write_config(str(tmp_path), "eval.json", config)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "corruption", ["missing_algorithm", "nan_cell", "ragged_row", "repeated_algorithm"]
    )
    def test_malformed_algorithm_features_exit_1_with_one_error_line(
        self, pipeline, tmp_path, capsys, corruption
    ):
        with open(os.path.join(pipeline["feat_out"], "algorithm_features.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if corruption == "missing_algorithm":
            rows = [r for r in rows if r[0] != "ease"]
        elif corruption == "nan_cell":
            rows[1][1] = "nan"
        elif corruption == "ragged_row":
            rows[1] = rows[1][:-1]
        else:
            rows[2][0] = rows[1][0]
        bad_table = tmp_path / "algorithm_features.csv"
        with open(bad_table, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with open(pipeline["eval_cfg"]) as fh:
            config = json.load(fh)
        config["algo_features"] = str(bad_table)
        cfg = write_config(str(tmp_path), "eval.json", config)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o"), "--mode", "user_algo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        if corruption == "missing_algorithm":
            assert "'ease'" in err

    @pytest.mark.parametrize("key, stage_out, name", [
        ("performance_matrix", "gt_out", "performance_matrix.csv"),
        ("user_features", "feat_out", "user_features.csv"),
        ("algo_features", "feat_out", "algorithm_features.csv"),
    ])
    @pytest.mark.parametrize("corruption", ["wrong_first_column", "header_only", "empty_file"])
    def test_bad_header_or_no_rows_exit_1_naming_the_file(
        self, pipeline, tmp_path, capsys, key, stage_out, name, corruption
    ):
        with open(os.path.join(pipeline[stage_out], name), newline="") as fh:
            rows = list(csv.reader(fh))
        if corruption == "wrong_first_column":
            rows[0][0] = "id"
        else:
            rows = rows[:1] if corruption == "header_only" else []
        bad_table = tmp_path / name
        with open(bad_table, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with open(pipeline["eval_cfg"]) as fh:
            config = json.load(fh)
        config[key] = str(bad_table)
        cfg = write_config(str(tmp_path), "eval.json", config)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o"), "--mode", "user_algo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_table}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(str(tmp_path), "eval.json", {"user_features": "x.csv"})
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_manifest_hashes_all_three_inputs(self, pipeline):
        with open(os.path.join(pipeline["eval_out"], "manifest_evaluate.json")) as fh:
            manifest = json.load(fh)
        assert len(manifest["inputs"]) == 3


TABLES = {
    "performance_matrix": ("gt_out", "performance_matrix.csv"),
    "user_features": ("feat_out", "user_features.csv"),
    "algo_features": ("feat_out", "algorithm_features.csv"),
}
NOT_FINITE_NUMBERS = ["", "abc", "nan", "inf", "-inf", "1e999", "0x1A", "1,5", "--2"]
NOT_A_PATH = [None, 3, True, [], {"path": "x.csv"}]
NOT_A_FOLD_COUNT = [None, True, "3", [3], {}, 2.5, -1, 0, 1, 10**6]
NOT_A_SEED = [None, True, "seven", [1], {}, 0.5, -1]
NOT_A_SPACE = [
    None, "lean", 3, [],
    {"n_iter": 0}, {"n_iter": "x"}, {"n_iter": [2]}, {"n_iter": 1.5},
    {"inner_folds": 1}, {"inner_folds": None}, {"n_iters": 2},
    {"distributions": []}, {"distributions": {"num_trees": "many"}},
    {"distributions": {"num_trees": {"type": "gamma", "low": 1, "high": 2}}},
    {"distributions": {"depth": {"type": "int_range", "low": 2, "high": 3}}},
    {"distributions": {"num_trees": {"type": "int_range", "low": 9}}},
    {"distributions": {"num_trees": {"type": "int_range", "low": 9, "high": 2}}},
    {"distributions": {"num_trees": {"type": "int_range", "low": "a", "high": 9}}},
    {"distributions": {"learning_rate": {"type": "log_uniform", "low": 0, "high": 0.1}}},
    {"distributions": {"subsample": {"type": "uniform", "low": None, "high": 1.0}}},
    {"distributions": {"max_depth": {"type": "choice", "values": []}}},
    {"distributions": {"max_depth": {"type": "choice", "values": 3}}},
    {"distributions": {"max_depth": {"type": "choice", "values": [2.5]}}},
    {"distributions": {"num_trees": {"type": "uniform", "low": 10, "high": 20}}},
]


@st.composite
def corrupted_table(draw, pipeline):
    """One of the three tables with a change that makes it invalid; returns (key, bytes)."""
    key = draw(st.sampled_from(sorted(TABLES)))
    stage_out, name = TABLES[key]
    with open(os.path.join(pipeline[stage_out], name), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    kinds = ["bad_number", "ragged", "repeated_id", "renamed_id_column", "repeated_column",
             "header_only", "empty", "bad_utf8"]
    if key != "performance_matrix":  # a matrix may leave users out
        kinds.append("dropped_row")
    kind = draw(st.sampled_from(kinds))
    row = draw(st.integers(1, len(rows) - 1))
    if kind == "bad_number":
        n_numeric = len(rows[0]) - 1
        if key == "algo_features":
            n_numeric = min(i for i, n in enumerate(rows[0][1:] + list(CATEGORICAL_NAMES))
                            if n in CATEGORICAL_NAMES)
        rows[row][draw(st.integers(1, n_numeric))] = draw(st.sampled_from(NOT_FINITE_NUMBERS))
    elif kind == "ragged":
        target = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            target.append("0.5")
        else:
            target.pop()
    elif kind == "repeated_id":
        other = draw(st.integers(1, len(rows) - 1).filter(lambda r: r != row))
        rows[row][0] = rows[other][0]
    elif kind == "renamed_id_column":
        rows[0][0] = draw(st.sampled_from(["", "id", "users", "algorithms"]))
    elif kind == "repeated_column":
        a, b = draw(st.lists(st.integers(1, len(rows[0]) - 1), min_size=2, max_size=2, unique=True))
        rows[0][a] = rows[0][b]
    elif kind == "header_only":
        rows = rows[:1]
    elif kind == "empty":
        rows = []
    elif kind == "dropped_row":
        del rows[row]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    data = text.getvalue().encode("utf-8")
    if kind == "bad_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return key, data


@st.composite
def corrupted_config(draw, config):
    """The evaluate config with one invalid value, key or text; returns its JSON text."""
    config = dict(config)
    kind = draw(st.sampled_from(["not_an_object", "truncated", "missing_key", "path",
                                 "folds", "seed", "space"]))
    if kind == "not_an_object":
        return json.dumps(draw(st.sampled_from([[], [config], 3, "config", None, True])))
    if kind == "truncated":
        text = json.dumps(config)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "missing_key":
        del config[draw(st.sampled_from(sorted(TABLES)))]
    elif kind == "path":
        key = draw(st.sampled_from(sorted(TABLES)))
        config[key] = draw(st.sampled_from(NOT_A_PATH + [config[key] + ".missing"]))
    elif kind == "folds":
        config["folds"] = draw(st.sampled_from(NOT_A_FOLD_COUNT))
    elif kind == "seed":
        config["seed"] = draw(st.sampled_from(NOT_A_SEED))
    else:
        bad = draw(st.sampled_from(NOT_A_SPACE))
        config["space"] = {**config["space"], **bad} if isinstance(bad, dict) else bad
    return json.dumps(config)


class TestEvaluateFuzz:
    """Corrupted evaluate inputs end in one named error line and exit 1 or 2, never a traceback."""

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_corrupted_inputs_exit_with_one_error_line(self, pipeline, data):
        with open(pipeline["eval_cfg"]) as fh:
            config = json.load(fh)
        with tempfile.TemporaryDirectory() as tmp:
            bad_table = None
            if data.draw(st.booleans(), label="corrupt a table"):
                key, payload = data.draw(corrupted_table(pipeline))
                bad_table = os.path.join(tmp, TABLES[key][1])
                with open(bad_table, "wb") as fh:
                    fh.write(payload)
                config[key] = bad_table
                text = json.dumps(config)
            else:
                text = data.draw(corrupted_config(config))
            cfg = os.path.join(tmp, "eval.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["evaluate", "--config", cfg, "--out", os.path.join(tmp, "o"),
                             "--mode", "user_algo"])
        err = err.getvalue()
        assert code in (1, 2), err
        assert err.startswith("error: " if code == 1 else "config error: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        if bad_table is not None:
            assert code == 1 and bad_table in err, err


NOT_A_FRACTION = [None, True, "x", "0.2", [0.2], {}, 0, 1, 1.5, -0.1, float("nan")]
NOT_A_COUNT = [None, True, "ten", [10], {}, 2.5, 0, -3]
NOT_A_PORTFOLIO = [5, True, [], ["pop"], "missing_portfolio.json", {}, {"algorithms": "pop"},
                   {"algorithms": {"pop": {}}}, {"algorithms": []}, {"algorithms": None}]
NOT_A_PORTFOLIO_ENTRY = [
    3, None, ["pop"], {}, {"params": {}}, {"name": 3}, {"name": None}, {"name": "svd"},
    {"name": "fism"}, {"name": "pop", "status": "disabled"}, {"name": "pop", "status": None},
]
NOT_PARAMS = ["x", [], 3, None, {"lambda": 2.0}, {"Neighbors": 5}]
BAD_PARAM_VALUES = {
    "itemknn": [{"neighbors": "10"}, {"neighbors": 2.5}, {"neighbors": None}, {"binarize": 1}, {"neighbors": 0}],
    "bpr": [{"factors": [4]}, {"epochs": 5.0}, {"lr": "fast"}, {"seed": "s"}, {"seed": True}, {"lr": -0.1}],
    "ease": [{"l2": None}, {"l2": "big"}, {"l2": True}, {"l2": float("inf")}, {"l2": -1.0}],
}
NOT_A_CONCEPTUAL_MAP = [
    5, True, [], ["pop"], "missing_map.json", {}, {**DEFAULT_CONCEPTUAL, "pop": 3},
    {**DEFAULT_CONCEPTUAL, "pop": "PCT"}, {**DEFAULT_CONCEPTUAL, "pop": ["Popularity", "Counting"]},
    {**DEFAULT_CONCEPTUAL, "pop": ["Deep", "Counting", True]},
    {**DEFAULT_CONCEPTUAL, "pop": ["Popularity", "Counting", "false"]},
]
GENERATED = {"name": "p", "kind": "uniform_sparse", "params": {"n_users": 10, "n_items": 12, "per_user": 4}}
NOT_A_PROBE = [
    3, None, "skewed", [], {}, {"kind": "uniform_sparse"}, {"name": 3, "kind": "uniform_sparse"},
    {"name": "p"}, {"name": "p", "kind": "fractal"}, {"name": "p", "kind": ["uniform_sparse"]},
    {"name": "p", "path": 3}, {"name": "p", "path": "missing_probe.csv"},
    {**GENERATED, "params": "big"}, {**GENERATED, "params": {"n_users": "20"}},
    {**GENERATED, "params": {"seed": 3}}, {**GENERATED, "params": {"users": 20}},
    {**GENERATED, "seed": "s"}, {**GENERATED, "seed": -1},
    {**GENERATED, "sample_users": "half"}, {**GENERATED, "sample_users": 0},
    {**GENERATED, "sample_users": 1.5}, {**GENERATED, "sample_users": 0.5, "sample_seed": 0.5},
    {**GENERATED, "test_fraction": 1}, {**GENERATED, "test_fraction": None},
]


NOT_EVENT_WEIGHTS = [
    3, True, "view", [1.0], {}, {"view": 1.0}, {"view": "1"}, {"view": None}, {"view": True}, {"view": [1.0]},
    {"view": float("inf")}, {"view": float("nan")}, {"view": 0.0}, {"view": -1.0},
]
NOT_A_COLUMN = [3, True, [], {}, ["server_ts"], "no_such_column"]
NOT_A_DEDUP = [None, 3, True, "max", "Sum", ["sum"], {}]
INGEST_CORRUPTIONS = {
    "event_weights": NOT_EVENT_WEIGHTS,
    "rating_col": NOT_A_COLUMN,
    "timestamp_col": NOT_A_COLUMN,
    "user_col": [None] + NOT_A_COLUMN,
    "item_col": [None] + NOT_A_COLUMN,
    "dedup": NOT_A_DEDUP,
    "name": [None, 3, [], {}],
    "path": [None, 3, [], "missing_raw.csv"],
    "min_interactions": NOT_A_COUNT,
}


@st.composite
def corrupted_ingest_config(draw, config):
    """An ingest config with one invalid value; returns its JSON text."""
    key = draw(st.sampled_from(sorted(INGEST_CORRUPTIONS)))
    return json.dumps({**config, key: draw(st.sampled_from(INGEST_CORRUPTIONS[key]))})


NOT_A_DATASET_ENTRY = [
    3, None, "planted", ["planted"], {}, {"kind": None}, {"kind": 3}, {"kind": ["planted"]},
    {"kind": "fractal"}, {"kind": "Planted"}, {"kind": "planted", "name": 3},
]
NOT_A_SEED = [None, True, "s", "17", 1.5, 17.0, -1, [17], {}]
NOT_SYNTH_PARAMS = {
    "planted": [{"users": 5}, {"users_per_group": "5"}, {"users_per_group": 2.5}, {"seed": 3},
                {"head_items": None}],
    "uniform_sparse": [{"n_users": "80"}, {"per_user": [12]}, {"n_items": True}, {"items": 120}],
    "event_log": [{"n_rows": "600"}, {"rows": 600}, {"n_rows": 6.0}],
}


@st.composite
def corrupted_synth_config(draw, config):
    """A synth config with one invalid dataset entry, entry seed, params or seed; returns its JSON text."""
    config = json.loads(json.dumps(config))
    entries = config["datasets"]
    kind = draw(st.sampled_from(["entry", "datasets", "params", "entry_seed", "seed", "repeated_name"]))
    if kind == "entry":
        at = draw(st.integers(0, len(entries)))
        entries[at:at + 1] = [draw(st.sampled_from(NOT_A_DATASET_ENTRY))]
    elif kind == "datasets":
        config["datasets"] = draw(st.sampled_from([None, 3, "bench", {}, {"kind": "planted"}]))
    elif kind == "params":
        entry = draw(st.sampled_from(entries))
        entry["params"] = draw(st.sampled_from(NOT_PARAMS + NOT_SYNTH_PARAMS[entry["kind"]]))
    elif kind == "entry_seed":
        draw(st.sampled_from(entries))["seed"] = draw(st.sampled_from(NOT_A_SEED))
    elif kind == "repeated_name":
        entries.append({**draw(st.sampled_from(entries)), "name": draw(st.sampled_from(entries))["name"]})
    else:
        config["seed"] = draw(st.sampled_from(NOT_A_SEED))
    return json.dumps(config)


@st.composite
def corrupted_stage_config(draw, config, features):
    """A ground-truth or features config with one invalid value; returns its JSON text."""
    config = json.loads(json.dumps(config))
    kinds = ["portfolio", "entry", "params", "test_fraction", "k"]
    if features:
        kinds += ["probe", "probes", "conceptual_map", "repeated_probe"]
    kind = draw(st.sampled_from(kinds))
    entries = config["portfolio"]["algorithms"]
    if kind == "portfolio":
        config["portfolio"] = draw(st.sampled_from(NOT_A_PORTFOLIO))
    elif kind == "entry":
        at = draw(st.integers(0, len(entries)))
        entries[at:at + 1] = [draw(st.sampled_from(NOT_A_PORTFOLIO_ENTRY))]
    elif kind == "params":
        algo = draw(st.sampled_from(sorted(BAD_PARAM_VALUES)))
        entry = next(e for e in entries if isinstance(e, dict) and e["name"] == algo)
        entry["params"] = draw(st.sampled_from(NOT_PARAMS + BAD_PARAM_VALUES[algo]))
    elif kind == "probe":
        at = draw(st.integers(0, len(config["probes"])))
        config["probes"][at:at + 1] = [draw(st.sampled_from(NOT_A_PROBE))]
    elif kind == "probes":
        config["probes"] = draw(st.sampled_from(["skewed", {}, 3, [["skewed"]]]))
    elif kind == "repeated_probe":
        config["probes"].append({**GENERATED, "name": draw(st.sampled_from(config["probes"]))["name"]})
    elif kind == "conceptual_map":
        config["conceptual_map"] = draw(st.sampled_from(NOT_A_CONCEPTUAL_MAP))
    else:
        config[kind] = draw(st.sampled_from(NOT_A_FRACTION if kind == "test_fraction" else NOT_A_COUNT))
    return json.dumps(config)


class TestStageFuzz:
    """Corrupted synth, ingest, ground-truth and features configs end in one named error line, never a traceback."""

    @settings(max_examples=330, deadline=None)
    @given(st.data())
    def test_corrupted_configs_exit_with_one_error_line(self, pipeline, data):
        command = data.draw(st.sampled_from(sorted(STAGE_CONFIGS)), label="command")
        with open(pipeline[STAGE_CONFIGS[command]]) as fh:
            config = json.load(fh)
        if command == "synth":
            text = data.draw(corrupted_synth_config(config))
        elif command == "ingest":
            text = data.draw(corrupted_ingest_config(config))
        else:
            text = data.draw(corrupted_stage_config(config, command == "features"))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "stage.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", cfg, "--out", os.path.join(tmp, "o")])
        err = err.getvalue()
        assert code in (1, 2), err
        assert err.startswith("error: " if code == 1 else "config error: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err


class TestAblateCommand:
    @pytest.mark.parametrize("category_sets", [
        5, [5], None, [[[1]]], "Code", [["Code"], "AST"], [], [["Code"], ["Code"]],
    ])
    def test_bad_category_sets_exit_2_with_one_config_error_line(self, pipeline, tmp_path, capsys, category_sets):
        with open(os.path.join(pipeline["cfg_dir"], "ablate.json")) as fh:
            config = json.load(fh)
        cfg = write_config(str(tmp_path), "ablate.json", {**config, "category_sets": category_sets})
        capsys.readouterr()
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'category_sets' ") and err.count("\n") == 1

    def test_entries_follow_requested_sets(self, pipeline):
        with open(os.path.join(pipeline["ablate_out"], "ablation.json")) as fh:
            payload = json.load(fh)
        assert set(payload["entries"]) == {"User-Only", "Code"}
        assert payload["n_folds"] == 2
        md = open(os.path.join(pipeline["ablate_out"], "ablation.md")).read()
        assert "| User-Only |" in md
        assert "| Code |" in md


class TestImportanceCommand:
    @pytest.mark.parametrize("params", [{"depth": 3}, "deep", {"num_trees": 2.5}, {"subsample": None},
                                        {"seed": 12345}, {"num_trees": 10, "seed": 0}])
    def test_bad_gbdt_params_exit_2_with_one_error_line(self, pipeline, tmp_path, capsys, params):
        with open(os.path.join(pipeline["cfg_dir"], "importance.json")) as fh:
            config = json.load(fh)
        cfg = write_config(str(tmp_path), "importance.json", {**config, "params": params})
        capsys.readouterr()
        assert main(["importance", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_csv_lists_every_feature_with_importances(self, pipeline):
        with open(os.path.join(pipeline["imp_out"], "importance.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "mean_importance", "std_importance"]
        names = [r[0] for r in rows[1:]]
        assert names[:15] == list(USER_FEATURE_NAMES)
        means = np.array([float(r[1]) for r in rows[1:]])
        assert means.sum() == pytest.approx(1.0, abs=1e-9)

    def test_json_top20_is_sorted(self, pipeline):
        with open(os.path.join(pipeline["imp_out"], "importance.json")) as fh:
            payload = json.load(fh)
        top = [e["mean"] for e in payload["top20"]]
        assert top == sorted(top, reverse=True)


class TestCliErrors:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_success_prints_output_paths(self, tmp_path, capsys):
        cfg = write_config(str(tmp_path), "s.json", {
            "datasets": [{"kind": "event_log", "name": "log", "params": {"n_rows": 5}}],
        })
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "log.csv" in out
