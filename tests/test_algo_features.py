"""Algorithm feature assembly: tags, landmarks, grouping, CSV round trips."""

import copy
import dataclasses
import json
import logging
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from recselect import algo_features
from recselect.algo_features import (
    AlgorithmFeatureTable,
    CATEGORICAL_NAMES,
    DEFAULT_CONCEPTUAL,
    FEATURE_CATEGORIES,
    ProbeResult,
    assemble_algorithm_features,
    group_for_column,
    landmark_portfolio,
    load_conceptual_map,
    static_metrics_for_portfolio,
)
from recselect.astgraph import AST_METRIC_NAMES
from recselect.codemetrics import CODE_METRIC_NAMES
from recselect.cli import main
from recselect.data import temporal_split_per_user, write_interactions_csv
from recselect.errors import ConfigError, SchemaError
from recselect.ground_truth import evaluate_portfolio
from recselect.recommenders import AVAILABLE_ALGORITHMS, build_train_matrix, stored_values, train_algorithm

from conftest import force_workers, make_dataset


def probe_split():
    rows = []
    ts = 0
    for u in range(6):
        for i in range(4):
            rows.append((f"u{u}", f"i{(u + i) % 5}", 1.0 + (i % 3), ts))
            ts += 1
    return temporal_split_per_user(make_dataset(rows), 0.25)


def write_features_config(tmp_path, conceptual_map):
    """A ``features`` config for ``ease`` alone on a toy dataset, with its conceptual map in
    ``tags.json``: ``conceptual_map`` as JSON, as text when a string, not written when None."""
    dataset = tmp_path / "data.csv"
    write_interactions_csv(make_dataset([(f"u{u}", f"i{(u + i) % 5}", 1.0, 4 * u + i)
                                         for u in range(6) for i in range(4)]), dataset)
    tags = tmp_path / "tags.json"
    if conceptual_map is not None:
        tags.write_text(conceptual_map if isinstance(conceptual_map, str) else json.dumps(conceptual_map))
    config = tmp_path / "features.json"
    config.write_text(json.dumps({"dataset": str(dataset), "portfolio": {"algorithms": ["ease"]},
                                  "conceptual_map": str(tags)}))
    return str(config)


class TestConceptualMap:
    def test_defaults_cover_the_whole_registry(self):
        tags = load_conceptual_map(AVAILABLE_ALGORITHMS)
        assert set(tags) == set(AVAILABLE_ALGORITHMS)
        assert tags["pop"].handles_cold_start is True
        assert tags["ease"].family == "Autoencoder"
        assert tags["bpr"].learning_paradigm == "Pairwise"

    def test_missing_algorithm_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no entry"):
            load_conceptual_map(["pop", "mystery"], {"pop": ("Popularity", "Counting", True)})

    def test_vocabulary_is_enforced(self):
        with pytest.raises(ConfigError, match="family"):
            load_conceptual_map(["pop"], {"pop": ("Deep", "Counting", True)})
        with pytest.raises(ConfigError, match="paradigm"):
            load_conceptual_map(["pop"], {"pop": ("Popularity", "Quantum", True)})

    def test_cold_start_must_be_a_json_boolean(self):
        for cold in ("false", 0, None):
            with pytest.raises(ConfigError, match="cold start"):
                load_conceptual_map(["pop"], {"pop": ["Popularity", "Counting", cold]})

    def test_loads_from_json_file(self, tmp_path):
        """The ``features`` command reads a map given as a path, as it reads a portfolio file."""
        path = write_features_config(tmp_path, {"ease": ["Autoencoder", "Closed-form", True]})
        assert main(["features", "--config", path, "--out", str(tmp_path / "out")]) == 0
        table = AlgorithmFeatureTable.from_csv(tmp_path / "out" / "algorithm_features.csv")
        assert table.numeric[0, table.numeric_names.index("handles_cold_start")] == 1.0  # the default is 0

    @pytest.mark.parametrize("text, message", [
        (None, "config file not found: {}"),
        ('{"ease": ', "config file {} is not valid JSON"),
        ('["ease"]', "config file {} must hold a JSON object"),
    ], ids=["missing", "malformed", "not-an-object"])
    def test_a_bad_map_file_is_a_config_error_before_any_output(self, tmp_path, capsys, text, message):
        path = write_features_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["features", "--config", path, "--out", str(out)]) == 2
        map_path = str(tmp_path / "tags.json")
        assert capsys.readouterr().err.startswith("config error: " + message.format(map_path))
        assert not (out / "user_features.csv").exists()


class TestGrouping:
    @pytest.mark.parametrize("name", CODE_METRIC_NAMES)
    def test_code_columns(self, name):
        assert group_for_column(name) == "Code"

    @pytest.mark.parametrize("name", AST_METRIC_NAMES)
    def test_ast_columns(self, name):
        assert group_for_column(name) == "AST"

    @pytest.mark.parametrize("name", [
        "perf_on_uniform_sparse",
        "traintime_on_x",
        "predtime_on_x",
        "landmark_failed_on_x",
    ])
    def test_performance_columns(self, name):
        assert group_for_column(name) == "Performance"

    @pytest.mark.parametrize("name", ["family", "learning_paradigm", "handles_cold_start"])
    def test_conceptual_columns(self, name):
        assert group_for_column(name) == "Conceptual"

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigError):
            group_for_column("vibes")

    def test_category_list_is_fixed(self):
        assert FEATURE_CATEGORIES == ("Code", "AST", "Performance", "Conceptual")


class TestLandmarks:
    def test_perf_matches_direct_evaluation(self):
        split = probe_split()
        algos = {"pop": {}, "ease": {"l2": 2.0}}
        landmarks = landmark_portfolio({"p0": split}, algos, k=10)
        matrix = build_train_matrix(split.train)
        for algo, params in algos.items():
            model = train_algorithm(algo, matrix, params)
            pm = evaluate_portfolio(matrix, split.test, {algo: model}, k=10)
            assert landmarks[algo]["p0"].perf == pytest.approx(pm.column_means()[0])

    def test_timing_off_is_bit_reproducible(self):
        """Landmarks count work instead of timing it, so every run is as reproducible as timing off was."""
        algos = {"pop": {}, "bpr": {"factors": 4, "epochs": 3, "seed": 5}}
        one = landmark_portfolio({"p0": probe_split()}, algos)
        two = landmark_portfolio({"p0": probe_split()}, algos)
        assert one == two

    def test_costs_are_the_models_counts(self):
        split = probe_split()
        algos = {"pop": {}, "itemknn": {"neighbors": 2}, "ease": {"l2": 2.0}}
        landmarks = landmark_portfolio({"p0": split}, algos)
        matrix = build_train_matrix(split.train)
        for algo, params in algos.items():
            model = train_algorithm(algo, matrix, params)
            users = len(evaluate_portfolio(matrix, split.test, {algo: model}, k=10).users)
            res = landmarks[algo]["p0"]
            assert (res.train_ops, res.pred_ops) == (model.train_ops, stored_values(model) * users)
            assert res.train_ops > 0 and res.pred_ops > 0

    def test_stored_values_count_the_history_each_model_scores_from(self):
        """itemknn, userknn and ease score from the users' histories they hold, never from the training matrix."""
        matrix = build_train_matrix(probe_split().train)
        everyone = np.arange(matrix.n_users)
        for algo, params, history in (("itemknn", {"neighbors": 2}, "history"),
                                      ("userknn", {"neighbors": 2}, "ratings"), ("ease", {"l2": 2.0}, "x")):
            model = train_algorithm(algo, matrix, params)
            want = model.score_users(everyone)
            model.matrix = dataclasses.replace(matrix, matrix=sp.csr_matrix(matrix.matrix.shape))
            np.testing.assert_array_equal(model.score_users(everyone), want, err_msg=algo)
            without = copy.copy(model)
            delattr(without, history)
            assert stored_values(model) - stored_values(without) == matrix.matrix.nnz, algo

    def test_each_landmark_trains_and_scores_once(self, monkeypatch):
        force_workers(monkeypatch, 1)  # the counters live in this process
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(algo_features, "train_algorithm", counted("train", algo_features.train_algorithm))
        monkeypatch.setattr(algo_features, "evaluate_portfolio",
                            counted("score", algo_features.evaluate_portfolio))
        algos = {"pop": {}, "itemknn": {"neighbors": 2}, "ease": {"l2": 2.0}}
        landmark_portfolio({"p0": probe_split(), "p1": probe_split()}, algos)
        assert calls == {"train": 6, "score": 6}

    def test_training_failure_is_flagged_not_fatal(self, caplog):
        algos = {"pop": {}, "biasedmf": DIVERGING}
        with caplog.at_level(logging.WARNING):
            landmarks = landmark_portfolio({"p0": probe_split()}, algos)
        bad = landmarks["biasedmf"]["p0"]
        assert bad.failed
        assert (bad.perf, bad.train_ops, bad.pred_ops) == (0.0, 0, 0)
        assert not landmarks["pop"]["p0"].failed
        assert any("landmark failed" in r.message for r in caplog.records)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_skipped_test_users_are_logged_once_per_probe(self, monkeypatch, caplog, n_workers):
        force_workers(monkeypatch, n_workers)
        split = probe_split()
        rows = [(it.user, it.item, it.rating, it.timestamp) for it in split.test.interactions]
        split = dataclasses.replace(split, test=make_dataset(rows + [("ghost", "i1", 1.0, 99)]))
        with caplog.at_level(logging.WARNING):
            landmark_portfolio({"p0": split}, {"pop": {}, "itemknn": {"neighbors": 2}, "ease": {"l2": 2.0}})
        assert sum("skipped 1 test user" in r.getMessage() for r in caplog.records) == 1

    def test_out_of_range_parameter_is_not_absorbed(self):
        with pytest.raises(ValueError, match="l2 must be > 0"):
            landmark_portfolio({"p0": probe_split()}, {"pop": {}, "ease": {"l2": -1.0}})


# biasedmf's SGD overflows at this learning rate: a DivergenceError, a genuine training failure.
DIVERGING = {"lr": 1e3, "epochs": 3}


def small_table(with_failure=False):
    split = probe_split()
    algos = {"pop": {}, "ease": {"l2": 2.0}}
    if with_failure:
        algos["biasedmf"] = DIVERGING
    code, ast_metrics = static_metrics_for_portfolio(list(algos))
    landmarks = landmark_portfolio({"p0": split, "p1": split}, algos)
    tags = load_conceptual_map(list(algos))
    return assemble_algorithm_features(
        code, ast_metrics, landmarks, tags, list(algos), ["p0", "p1"]
    )


class TestAssembly:
    def test_column_layout_without_failures(self):
        table = small_table()
        want = (
            list(CODE_METRIC_NAMES)
            + list(AST_METRIC_NAMES)
            + ["perf_on_p0", "traintime_on_p0", "predtime_on_p0"]
            + ["perf_on_p1", "traintime_on_p1", "predtime_on_p1"]
            + ["handles_cold_start"]
        )
        assert table.numeric_names == want
        assert table.categorical_names == list(CATEGORICAL_NAMES)
        assert table.numeric.shape == (2, len(want))

    def test_failure_columns_appear_only_when_needed(self):
        clean = small_table()
        assert not any(n.startswith("landmark_failed_on_") for n in clean.numeric_names)
        flagged = small_table(with_failure=True)
        assert "landmark_failed_on_p0" in flagged.numeric_names
        col = flagged.numeric_names.index("landmark_failed_on_p0")
        assert flagged.numeric[flagged.row_index("biasedmf"), col] == 1.0
        assert flagged.numeric[flagged.row_index("ease"), col] == 0.0
        assert flagged.numeric[flagged.row_index("pop"), col] == 0.0

    def test_cold_start_flag_is_numeric(self):
        table = small_table()
        col = table.numeric_names.index("handles_cold_start")
        assert table.numeric[table.row_index("pop"), col] == 1.0
        assert table.numeric[table.row_index("ease"), col] == 0.0

    def test_static_columns_match_the_source_files(self):
        table = small_table()
        code, ast_metrics = static_metrics_for_portfolio(["pop", "ease"])
        sloc_col = table.numeric_names.index("sloc")
        depth_col = table.numeric_names.index("ast_depth")
        assert table.numeric[table.row_index("pop"), sloc_col] == code["pop"].sloc
        assert table.numeric[table.row_index("ease"), depth_col] == ast_metrics["ease"].ast_depth

    def test_missing_part_is_a_config_error(self):
        split = probe_split()
        algos = {"pop": {}}
        code, ast_metrics = static_metrics_for_portfolio(["pop"])
        landmarks = landmark_portfolio({"p0": split}, algos)
        tags = load_conceptual_map(["pop"])
        with pytest.raises(ConfigError, match="missing"):
            assemble_algorithm_features({}, ast_metrics, landmarks, tags, ["pop"], ["p0"])
        with pytest.raises(ConfigError, match="probe"):
            assemble_algorithm_features(code, ast_metrics, landmarks, tags, ["pop"], ["ghost"])


class TestFiltering:
    def test_code_only_keeps_seven_numeric_columns(self):
        table = small_table().filter_categories({"Code"})
        assert table.numeric_names == list(CODE_METRIC_NAMES)
        assert table.categorical_names == []
        assert table.categorical == [(), ()]

    def test_conceptual_keeps_categoricals_and_cold_start(self):
        table = small_table().filter_categories({"Conceptual"})
        assert table.numeric_names == ["handles_cold_start"]
        assert table.categorical_names == list(CATEGORICAL_NAMES)
        assert table.categorical[0] == ("Popularity", "Counting")

    def test_performance_keeps_probe_triples(self):
        table = small_table().filter_categories({"Performance"})
        assert all(
            n.split("_on_")[0] in ("perf", "traintime", "predtime")
            for n in table.numeric_names
        )
        assert len(table.numeric_names) == 6

    def test_union_of_all_categories_is_identity_on_columns(self):
        table = small_table()
        full = table.filter_categories(set(FEATURE_CATEGORIES))
        assert full.numeric_names == table.numeric_names
        np.testing.assert_array_equal(full.numeric, table.numeric)

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigError, match="unknown feature categories"):
            small_table().filter_categories({"Sentiment"})


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        table = small_table()
        path = tmp_path / "af.csv"
        table.to_csv(path)
        back = AlgorithmFeatureTable.from_csv(path)
        assert back.algorithms == table.algorithms
        assert back.numeric_names == table.numeric_names
        assert back.categorical_names == table.categorical_names
        assert back.categorical == table.categorical
        np.testing.assert_array_equal(back.numeric, table.numeric)

    def test_round_trip_with_failure_columns(self, tmp_path):
        table = small_table(with_failure=True)
        path = tmp_path / "af.csv"
        table.to_csv(path)
        back = AlgorithmFeatureTable.from_csv(path)
        assert back.numeric_names == table.numeric_names
        np.testing.assert_array_equal(back.numeric, table.numeric)

    @pytest.mark.parametrize("body, message", [
        ("pop,10,Popularity\nease,nan,Autoencoder\n", "line 3 .* non-finite"),
        ("pop,inf,Popularity\n", "line 2 .* non-finite"),
        ("pop,ten,Popularity\n", "line 2 .*could not convert"),
        ("pop,10,Popularity\npop,12,Popularity\n", "line 3 repeats algorithm 'pop'"),
        ("pop,10\n", "line 2 has 2 fields, the header has 3"),
        ("pop,10,Popularity,Counting\n", "line 2 has 4 fields"),
        ("", "af.csv: no algorithm rows after the header"),
    ])
    def test_from_csv_rejects_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "af.csv"
        path.write_text("algorithm,sloc,family\n" + body)
        with pytest.raises(SchemaError, match=message):
            AlgorithmFeatureTable.from_csv(path)

    def test_header_must_start_with_algorithm(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("algo,sloc\npop,10\n")
        with pytest.raises(SchemaError, match="bad.csv: expected 'algorithm' as the first header column"):
            AlgorithmFeatureTable.from_csv(path)


class TestDefaultsSanity:
    def test_default_map_matches_registry(self):
        assert set(DEFAULT_CONCEPTUAL) == set(AVAILABLE_ALGORITHMS)

    def test_only_popularity_handles_cold_start(self):
        cold = [a for a, (_, _, c) in DEFAULT_CONCEPTUAL.items() if c]
        assert cold == ["pop"]
