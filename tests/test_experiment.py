"""Nested cross-validation plumbing on small planted-signal problems.

The oracle and single-best predictors must reproduce VBA and SBA exactly
through the same fold loop the model uses; that equality is the main guard
against selection-plumbing bugs (leakage, fold drift, misaligned lookups).
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import recselect.experiment as experiment
import recselect.pool as pool
from recselect.algo_features import AlgorithmFeatureTable, FEATURE_CATEGORIES
from recselect.data import write_json
from recselect.errors import ConfigError, SearchError
from recselect.experiment import (
    DEFAULT_ABLATION_SETS,
    MODES,
    CombinedReport,
    SearchSpace,
    ablation_label,
    assert_user_disjoint,
    ci_half_width,
    derive_seed,
    make_user_folds,
    run_ablation,
    run_importance,
    run_nested_cv,
    selector_fold_metrics,
)
from recselect.ground_truth import PerformanceMatrix
from recselect.meta import GBDTParams, Presort, encode_algo_features
from recselect.recommenders import top_k
from recselect.user_features import USER_FEATURE_NAMES, UserFeatureTable

from conftest import assert_no_child_process, force_workers

LEAN_SPACE = SearchSpace(
    n_iter=2,
    inner_folds=2,
    distributions={
        "num_trees": {"type": "int_range", "low": 10, "high": 20},
        "learning_rate": {"type": "log_uniform", "low": 0.1, "high": 0.3},
        "max_depth": {"type": "int_range", "low": 2, "high": 3},
    },
)


def planted_problem(n_users=24):
    """Two user groups, each with its own best algorithm, readable from f0."""
    rng = np.random.default_rng(0)
    users = [f"u{i:02d}" for i in range(n_users)]
    group = np.array([i % 2 for i in range(n_users)], dtype=np.float64)
    values = np.column_stack([
        np.where(group == 0, 0.8, 0.2),
        np.where(group == 1, 0.8, 0.2),
        np.full(n_users, 0.1),
    ])
    pm = PerformanceMatrix(users, ["alpha", "beta", "gamma"], values)
    feats = rng.normal(0.0, 0.01, size=(n_users, 15))
    feats[:, 0] = group
    uf = UserFeatureTable(users, USER_FEATURE_NAMES, feats)
    return pm, uf


def synthetic_algo_table():
    return AlgorithmFeatureTable(
        algorithms=["alpha", "beta", "gamma"],
        numeric_names=["sloc", "hal_volume", "perf_on_a", "handles_cold_start"],
        numeric=np.array([
            [12.0, 110.0, 0.25, 1.0],
            [25.0, 300.0, 0.45, 0.0],
            [31.0, 410.0, 0.15, 0.0],
        ]),
        categorical_names=["family", "learning_paradigm"],
        categorical=[
            ("Popularity", "Counting"),
            ("Neighborhood", "Item-based"),
            ("Autoencoder", "Closed-form"),
        ],
    )


class TestDeriveSeed:
    def test_matches_direct_hash_recomputation(self):
        for parts in [("a",), (1, "train", "pop"), ("x", "y", "z")]:
            joined = "/".join(str(p) for p in parts)
            digest = hashlib.blake2b(joined.encode("utf-8"), digest_size=8).digest()
            want = int.from_bytes(digest, "big") >> 1
            assert derive_seed(*parts) == want

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed(i, "hpo", j) for i in range(8) for j in range(8)}
        assert len(seeds) == 64

    def test_part_order_matters(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_fits_in_a_nonnegative_int64(self):
        for i in range(50):
            s = derive_seed("probe", i)
            assert 0 <= s < 2 ** 63


class TestFolds:
    def test_partition_and_balance(self):
        folds = make_user_folds(11, 3, seed=4)
        assert sorted(int(r) for f in folds for r in f) == list(range(11))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_seeded_determinism(self):
        same = zip(make_user_folds(9, 3, 7), make_user_folds(9, 3, 7))
        assert all(np.array_equal(a, b) for a, b in same)
        other = zip(make_user_folds(9, 3, 7), make_user_folds(9, 3, 8))
        assert not all(np.array_equal(a, b) for a, b in other)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.integers(2, 12), st.integers(0, 2 ** 63 - 1))
    def test_folds_deal_the_seeded_permutation_round_robin(self, n, k, seed):
        """Report bytes depend on this exact order: test rows are scored in it."""
        if k > n:
            with pytest.raises(ValueError):
                make_user_folds(n, k, seed)
            return
        folds = make_user_folds(n, k, seed)
        assert len(folds) == k
        assert sorted(int(r) for f in folds for r in f) == list(range(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        dealt = [[] for _ in range(k)]
        for position, row in enumerate(np.random.default_rng(seed).permutation(n)):
            dealt[position % k].append(int(row))
        assert [f.tolist() for f in folds] == dealt

    def test_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            make_user_folds(2, 1, 0)
        with pytest.raises(ValueError):
            make_user_folds(2, 3, 0)

    def test_disjointness_guard_names_the_offender(self):
        assert_user_disjoint([["a", "b"], ["c"]])
        with pytest.raises(AssertionError, match="'b'"):
            assert_user_disjoint([["a", "b"], ["b"]])
        assert_user_disjoint(make_user_folds(10, 3, 0))
        with pytest.raises(AssertionError, match="user 4 "):
            assert_user_disjoint([np.array([0, 4]), np.array([4, 1])])


class TestCiHalfWidth:
    def test_frozen_three_point_value(self):
        assert ci_half_width([0.1, 0.2, 0.3]) == pytest.approx(0.248413771175033, rel=1e-12)

    def test_single_value_has_no_interval(self):
        assert ci_half_width([0.5]) is None

    def test_matches_t_formula_on_random_samples(self):
        rng = np.random.default_rng(2)
        for n in range(2, 101):
            values = rng.normal(size=n)
            want = stats.t.ppf(0.975, n - 1) * (values.std(ddof=1) / math.sqrt(n))
            assert ci_half_width(values) == want, n


def row_metrics(truth_row, scores_row):
    """``selector_fold_metrics`` of a one-user fold."""
    return selector_fold_metrics(np.array([truth_row], dtype=float), np.array([scores_row], dtype=float))


class TestTopKHit:
    def test_hit_and_miss_at_k1(self):
        truth = [0.2, 0.9, 0.1]
        assert row_metrics(truth, [0.0, 1.0, 0.5])[1] == 100.0
        assert row_metrics(truth, [1.0, 0.0, 0.5])[1] == 0.0

    def test_k3_window(self):
        truth = np.array([[0.0, 0.0, 0.0, 1.0]] * 2)
        scores = np.array([[0.9, 0.8, 0.7, 0.6], [0.9, 0.8, 0.6, 0.7]])  # best ranked 4th, then 3rd
        assert selector_fold_metrics(truth, scores)[1:] == (0.0, 50.0)

    def test_tied_truth_counts_any_best(self):
        assert row_metrics([1.0, 1.0, 0.0], [0.0, 1.0, 0.5])[1] == 100.0

    def test_tied_scores_resolve_to_lower_index(self):
        ndcg, top1, top3 = row_metrics([0.0, 1.0], [0.5, 0.5])
        assert (ndcg, top1, top3) == (0.0, 0.0, 100.0)


class TestSearchSpace:
    def test_samples_respect_bounds_and_types(self):
        rng = np.random.default_rng(0)
        space = SearchSpace(
            n_iter=4,
            inner_folds=2,
            distributions={
                "num_trees": {"type": "int_range", "low": 5, "high": 9},
                "learning_rate": {"type": "log_uniform", "low": 0.01, "high": 0.1},
                "subsample": {"type": "uniform", "low": 0.5, "high": 0.9},
                "max_depth": {"type": "choice", "values": [2, 4]},
            },
        )
        for _ in range(200):
            params = space.sample(rng)
            assert isinstance(params["num_trees"], int)
            assert 5 <= params["num_trees"] <= 9
            assert 0.01 <= params["learning_rate"] <= 0.1
            assert 0.5 <= params["subsample"] <= 0.9
            assert params["max_depth"] in (2, 4)

    def test_int_range_bounds_are_inclusive(self):
        rng = np.random.default_rng(1)
        space = SearchSpace(distributions={"num_trees": {"type": "int_range", "low": 1, "high": 2}})
        drawn = {space.sample(rng)["num_trees"] for _ in range(100)}
        assert drawn == {1, 2}

    def test_unknown_distribution_type_rejected(self):
        space = SearchSpace(distributions={"x": {"type": "mystery"}})
        with pytest.raises(ConfigError):
            space.sample(np.random.default_rng(0))

    def test_from_dict_validates_counts(self):
        space = SearchSpace.from_dict({"n_iter": 3, "inner_folds": 2})
        assert space.n_iter == 3
        with pytest.raises(ConfigError):
            SearchSpace.from_dict({"n_iter": 0})
        with pytest.raises(ConfigError):
            SearchSpace.from_dict({"inner_folds": 1})
        with pytest.raises(ConfigError, match="search space has unknown key 'n_iters'"):
            SearchSpace.from_dict({"n_iters": 2, "inner_folds": 2})


def per_user_reference(truth, scores):
    """Argmax choice and per-row ``top_k`` hits, one user at a time."""
    achieved, hits1, hits3 = [], 0, 0
    for truth_row, scores_row in zip(truth, scores):
        achieved.append(truth_row[int(np.argmax(scores_row))])
        truth_best = np.flatnonzero(truth_row == truth_row.max())
        hits1 += bool(np.isin(top_k(scores_row[None, :], 1)[0], truth_best).any())
        hits3 += bool(np.isin(top_k(scores_row[None, :], 3)[0], truth_best).any())
    n = len(truth)
    return float(np.mean(achieved)), 100.0 * hits1 / n, 100.0 * hits3 / n


@st.composite
def fold_matrices(draw):
    """Truth and score matrices on a coarse grid, so exact ties are common and near ties absent."""
    n_users = draw(st.integers(1, 8))
    n_algorithms = draw(st.sampled_from([1, 2, 3, 4, 6]))
    grid = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
    shape = n_users * n_algorithms
    truth = draw(st.lists(grid, min_size=shape, max_size=shape))
    scores = draw(st.lists(grid.map(lambda v: 2.0 * v - 1.0), min_size=shape, max_size=shape))
    return (np.reshape(truth, (n_users, n_algorithms)), np.reshape(scores, (n_users, n_algorithms)))


class TestSelectorFoldMetrics:
    def test_recomposes_from_score_functions(self):
        truth = np.array([[0.4, 0.6], [0.9, 0.3]])
        scores = np.array([[0.0, 1.0], [0.0, 1.0]])
        ndcg, top1, top3 = selector_fold_metrics(truth, scores)
        assert ndcg == pytest.approx((0.6 + 0.3) / 2)
        assert top1 == 50.0
        assert top3 == 100.0

    @settings(max_examples=200, deadline=None)
    @given(fold_matrices())
    def test_batched_metrics_equal_the_per_user_reference(self, matrices):
        truth, scores = matrices
        assert selector_fold_metrics(truth, scores) == per_user_reference(truth, scores)

    def test_choice_and_top1_hit_share_one_tie_rule(self):
        # 0.1 + 0.2 exceeds 0.3 by one ulp: a raw argmax would choose column 1
        # while the snapped top-1 hit counted column 0.
        assert row_metrics([1.0, 0.0], [0.3, 0.1 + 0.2])[:2] == (1.0, 100.0)

    def test_non_finite_scores_are_never_chosen_or_hit(self):
        # The VBA scores are the truth rows, which hold NaN when a matrix is built directly.
        assert row_metrics([0.0, 0.0, 1.0], [1.0, np.nan, np.inf]) == (0.0, 0.0, 0.0)

    def test_scores_without_a_finite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            row_metrics([0.5, 0.4], [np.nan, np.nan])


def assert_metrics_read_from_scores(report, pm):
    """Each method's fold lists are its out-of-fold scores' metrics at the folds' test rows."""
    for name, method in report.methods.items():
        per_fold = [selector_fold_metrics(pm.values[test], report.scores[name][test]) for test in report.folds]
        assert [method.fold_ndcg, method.fold_top1, method.fold_top3] == [list(m) for m in zip(*per_fold)]


class TestNestedCv:
    def test_non_finite_targets_name_the_failed_search(self, monkeypatch):
        force_workers(monkeypatch, 2)
        pm, uf = planted_problem()
        pm.values[3, 1] = np.nan  # from_csv rejects this; the constructor does not
        with pytest.raises(SearchError, match="finite validation MSE"):
            run_nested_cv(pm, uf, None, "user_only", 3, LEAN_SPACE, seed=0)
        assert_no_child_process()

    def test_oracle_predictor_reproduces_vba_exactly(self):
        pm, uf = planted_problem()
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=3, seed=5, predictor="oracle")
        assert np.array_equal(report.scores["model"], pm.values)
        assert_metrics_read_from_scores(report, pm)
        assert report.methods["model"].fold_ndcg == report.methods["vba"].fold_ndcg
        assert report.methods["model"].fold_top1 == [100.0] * 3
        assert report.best_params_per_fold == [{}, {}, {}]

    def test_single_best_predictor_reproduces_sba_exactly(self):
        pm, uf = planted_problem()
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=3, seed=5, predictor="single_best")
        assert np.array_equal(report.scores["model"], np.tile(pm.column_means(), (len(pm.users), 1)))
        assert_metrics_read_from_scores(report, pm)
        assert report.methods["model"].fold_ndcg == report.methods["sba"].fold_ndcg
        assert report.methods["model"].fold_top1 == report.methods["sba"].fold_top1

    def test_user_only_model_learns_the_planted_split(self):
        pm, uf = planted_problem()
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=3, space=LEAN_SPACE, seed=1)
        sba = report.methods["sba"].mean_ndcg()
        model = report.methods["model"].mean_ndcg()
        assert sba == pytest.approx(0.5, abs=0.05)
        assert model > sba + 0.2
        assert report.gap_closed_pct() > 60.0
        assert report.model_label == "M(User-Only)"
        assert report.sba_algorithm == "alpha"

    def test_user_algo_model_learns_through_pair_features(self):
        pm, uf = planted_problem()
        report = run_nested_cv(
            pm, uf, synthetic_algo_table(), "user_algo", n_folds=3, space=LEAN_SPACE, seed=1
        )
        assert report.methods["model"].mean_ndcg() > report.methods["sba"].mean_ndcg() + 0.2
        assert report.model_label == "M(User+Algo)"
        assert all(set(p) == {"num_trees", "learning_rate", "max_depth"} for p in report.best_params_per_fold)

    def test_same_seed_same_report(self):
        pm, uf = planted_problem(n_users=18)
        a = run_nested_cv(pm, uf, None, "user_only", n_folds=3, space=LEAN_SPACE, seed=9)
        b = run_nested_cv(pm, uf, None, "user_only", n_folds=3, space=LEAN_SPACE, seed=9)
        assert a.to_dict() == b.to_dict()
        assert list(a.scores) == list(b.scores) == ["sba", "vba", "model"]
        assert all(np.array_equal(a.scores[name], b.scores[name]) for name in a.scores)

    def test_scaler_fits_on_training_rows_only(self, monkeypatch):
        pm, uf = planted_problem()
        recorded = []
        original = experiment.standardize_fit

        def spy(x):
            recorded.append(x.shape[0])
            return original(x)

        monkeypatch.setattr(experiment, "standardize_fit", spy)
        run_nested_cv(pm, uf, None, "user_only", n_folds=3, seed=2, predictor="oracle")
        assert recorded == [16, 16, 16]  # 24 users, 3 folds of 8 held out

    def test_mode_and_predictor_validation(self):
        pm, uf = planted_problem(n_users=6)
        with pytest.raises(ConfigError):
            run_nested_cv(pm, uf, None, "sideways", n_folds=2)
        with pytest.raises(ConfigError):
            run_nested_cv(pm, uf, None, "user_only", n_folds=2, predictor="psychic")
        with pytest.raises(ConfigError, match="algorithm feature table"):
            run_nested_cv(pm, uf, None, "user_algo", n_folds=2)

    def test_degenerate_matrix_reports_undefined_gap(self):
        users = [f"u{i}" for i in range(8)]
        values = np.tile([0.9, 0.1, 0.1], (8, 1))
        pm = PerformanceMatrix(users, ["a", "b", "c"], values)
        uf = UserFeatureTable(users, USER_FEATURE_NAMES, np.random.default_rng(0).normal(size=(8, 15)))
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=2, seed=0, predictor="oracle")
        assert report.gap_closed_pct() is None
        assert "undefined" in report.render_markdown()

    def test_markdown_report_structure(self):
        pm, uf = planted_problem()
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=3, seed=5, predictor="oracle")
        text = report.render_markdown()
        assert "| SBA |" in text
        assert "| VBA |" in text
        assert "Gap closed:" in text
        assert "Single best algorithm: alpha" in text

    def test_to_dict_is_json_serializable_with_summary_keys(self):
        pm, uf = planted_problem()
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=3, seed=5, predictor="oracle")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_users"] == 24
        # the out-of-fold matrices and the fold rows stay in memory
        assert set(payload) == {"mode", "algorithms", "n_folds", "seed", "n_users", "sba_algorithm",
                                "model_label", "methods", "best_params_per_fold", "gap_closed_pct"}
        assert payload["model_label"] == "oracle"
        method = payload["methods"]["model"]
        for key in ("mean_ndcg", "ci_ndcg", "mean_top1_pct", "ci_top1_pct", "fold_ndcg"):
            assert key in method


def _sleep_then_echo(job):
    """Sleep ``job[1]`` seconds, then return ``job[0]``, or raise for a negative one."""
    index, seconds = job
    time.sleep(seconds)
    if index < 0:
        raise ValueError(f"job {index} failed")
    return index


class TestParallelFolds:
    @staticmethod
    def reports(monkeypatch, n_workers):
        force_workers(monkeypatch, n_workers)
        pm, uf = planted_problem(n_users=18)
        table = synthetic_algo_table()
        return (
            [run_nested_cv(pm, uf, table, mode, 3, LEAN_SPACE, 3).to_dict() for mode in MODES],
            run_ablation(pm, uf, table, [frozenset(), frozenset({"Code"})], 3, LEAN_SPACE, 4).to_dict(),
            run_importance(pm, uf, table, 3, GBDTParams(num_trees=10, max_depth=2), 6).to_dict(),
        )

    def test_pool_and_serial_give_the_same_reports(self, monkeypatch):
        assert self.reports(monkeypatch, 2) == self.reports(monkeypatch, 1)

    def test_results_follow_job_order_not_finishing_order(self, monkeypatch):
        force_workers(monkeypatch, 2)
        # One worker sleeps on job 0 while the other finishes jobs 1-3.
        jobs = [(0, 0.5), (1, 0.0), (2, 0.0), (3, 0.0)]
        assert pool.map_jobs(_sleep_then_echo, jobs) == [0, 1, 2, 3]

    def test_first_failing_job_in_job_order_raises(self, monkeypatch):
        force_workers(monkeypatch, 2)
        # Job -2 fails first in time; a serial loop would have stopped at job -1.
        with pytest.raises(ValueError, match="job -1 failed"):
            pool.map_jobs(_sleep_then_echo, [(0, 0.0), (-1, 0.3), (-2, 0.0)])
        assert_no_child_process()

    def test_no_worker_outlives_a_run(self, monkeypatch):
        force_workers(monkeypatch, 2)
        pm, uf = planted_problem()
        report = run_nested_cv(pm, uf, None, "user_only", 3, LEAN_SPACE, seed=1)
        assert len(report.best_params_per_fold) == 3
        assert_no_child_process()

    def test_worker_count_is_capped_at_jobs_and_usable_cpus(self, monkeypatch):
        usable = pool._worker_count(10**6)
        assert 1 <= usable <= (os.cpu_count() or 1)
        assert [pool._worker_count(n) for n in (0, 1, 2, 3)] == [1, 1, min(2, usable), min(3, usable)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert [pool._worker_count(n) for n in (2, 3, 50)] == [2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert [pool._worker_count(n) for n in (2, 50)] == [2, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool._worker_count(50) == 1


def per_fold_search_reference(pm, uf, table, mode, n_folds, space, seed):
    """Nested CV with one job per outer fold: its candidates searched in turn, then its refit.

    Returns each fold's chosen hyperparameters, its (NDCG, top-1, top-3)
    metrics and its refit's score matrix.
    """
    enc = encode_algo_features(table) if mode == "user_algo" else None
    chosen, metrics, refit_scores = [], [], []
    for fold_idx, train, test, x in experiment._outer_folds(pm, uf, n_folds, seed):
        rng = np.random.default_rng(derive_seed(seed, "hpo", fold_idx))
        candidates = [space.sample(rng) for _ in range(space.n_iter)]
        inner = make_user_folds(len(train), space.inner_folds, derive_seed(seed, "inner", fold_idx))
        best_params, best_mse = None, np.inf
        for c_idx, candidate in enumerate(candidates):
            fold_mses = []
            for i_idx, val in enumerate(inner):
                params = GBDTParams(**candidate, seed=derive_seed(seed, "inner-fit", fold_idx, c_idx, i_idx))
                pred = experiment._fit_predictor(mode, params, pm, np.delete(train, val), train[val], x, enc)
                fold_mses.append(np.mean(np.mean((pred - pm.values[train[val]]) ** 2, axis=1)))
            mse = float(np.mean(fold_mses))
            if mse < best_mse:
                best_mse, best_params = mse, candidate
        params = GBDTParams(**best_params, seed=derive_seed(seed, "refit", fold_idx))
        chosen.append(best_params)
        refit_scores.append(experiment._fit_predictor(mode, params, pm, train, test, x, enc))
        metrics.append(selector_fold_metrics(pm.values[test], refit_scores[-1]))
    return chosen, metrics, refit_scores


SUBSAMPLED_SPACE = SearchSpace(
    n_iter=3,
    inner_folds=2,
    distributions={**LEAN_SPACE.distributions,
                   "min_samples_leaf": {"type": "int_range", "low": 1, "high": 3},
                   "subsample": {"type": "uniform", "low": 0.6, "high": 1.0}},
)


class TestCandidateJobs:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_equal_to_a_per_fold_search(self, monkeypatch, n_workers, mode):
        force_workers(monkeypatch, n_workers)
        pm, uf = planted_problem(n_users=18)
        table = synthetic_algo_table()
        report = run_nested_cv(pm, uf, table, mode, 3, SUBSAMPLED_SPACE, seed=8)
        chosen, metrics, refit_scores = per_fold_search_reference(pm, uf, table, mode, 3, SUBSAMPLED_SPACE, 8)
        model = report.methods["model"]
        assert report.best_params_per_fold == chosen
        assert list(zip(model.fold_ndcg, model.fold_top1, model.fold_top3)) == metrics
        assert sorted(int(row) for test in report.folds for row in test) == list(range(len(pm.users)))
        for test, want in zip(report.folds, refit_scores, strict=True):
            assert np.array_equal(report.scores["model"][test], want)
        assert_metrics_read_from_scores(report, pm)

    def test_jobs_are_inner_training_sets_then_refits(self, monkeypatch):
        sent = []
        original = experiment.map_jobs

        def spy(fn, jobs):
            sent.append(list(jobs))
            return original(fn, jobs)

        monkeypatch.setattr(experiment, "map_jobs", spy)
        pm, uf = planted_problem(n_users=18)
        run_nested_cv(pm, uf, None, "user_only", 3, SUBSAMPLED_SPACE, seed=8)
        assert len(sent) == 2
        assert sent[0] == [(fold, inner) for fold in range(3) for inner in range(SUBSAMPLED_SPACE.inner_folds)]
        assert [fold[0] for fold, _ in sent[1]] == [0, 1, 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_each_inner_training_set_holds_one_presort_per_min_samples_leaf(self, monkeypatch, mode):
        force_workers(monkeypatch, 1)  # the jobs run here, where the spy sees them
        built = []
        monkeypatch.setattr(experiment, "Presort", lambda x, leaf: built.append(leaf) or Presort(x, leaf))
        pm, uf = planted_problem(n_users=18)
        run_nested_cv(pm, uf, synthetic_algo_table(), mode, 3, SUBSAMPLED_SPACE, seed=8)
        leaves = []  # per fold, the candidates' min_samples_leaf
        for fold in range(3):
            rng = np.random.default_rng(derive_seed(8, "hpo", fold))
            leaves.append([SUBSAMPLED_SPACE.sample(rng)["min_samples_leaf"] for _ in range(SUBSAMPLED_SPACE.n_iter)])
        assert any(len(set(fold)) >= 2 for fold in leaves)  # the draw needs two presorts in some fold
        assert built == [leaf for fold in leaves for _ in range(SUBSAMPLED_SPACE.inner_folds)
                         for leaf in sorted(set(fold))]


class TestFullEvaluation:
    def test_both_modes_share_folds_and_render_four_rows(self):
        pm, uf = planted_problem(n_users=18)
        combined = CombinedReport(*(run_nested_cv(pm, uf, synthetic_algo_table(), mode, 3, LEAN_SPACE, 3)
                                    for mode in MODES))
        assert combined.user_only.methods["sba"].fold_ndcg == combined.user_algo.methods["sba"].fold_ndcg
        assert combined.user_only.methods["vba"].fold_ndcg == combined.user_algo.methods["vba"].fold_ndcg
        text = combined.render_markdown()
        for label in ("| SBA |", "| M(User-Only) |", "| M(User+Algo) |", "| VBA |"):
            assert label in text
        payload = combined.to_dict()
        assert set(payload) == {"user_only", "user_algo"}


class TestAblation:
    def test_labels(self):
        assert ablation_label(frozenset()) == "User-Only"
        assert ablation_label(frozenset(FEATURE_CATEGORIES)) == "All Features"
        assert ablation_label(frozenset({"Code"})) == "Code"
        assert ablation_label(frozenset({"Code", "AST"})) == "AST+Code"

    def test_default_sets(self):
        assert len(DEFAULT_ABLATION_SETS) == 6
        assert frozenset() in DEFAULT_ABLATION_SETS
        assert frozenset(FEATURE_CATEGORIES) in DEFAULT_ABLATION_SETS

    def test_endpoints_delegate_to_the_reference_runs(self):
        pm, uf = planted_problem(n_users=18)
        table = synthetic_algo_table()
        report = run_ablation(
            pm, uf, table,
            category_sets=[frozenset(), frozenset(FEATURE_CATEGORIES)],
            n_folds=3, space=LEAN_SPACE, seed=4,
        )
        user_only = run_nested_cv(pm, uf, None, "user_only", 3, LEAN_SPACE, 4)
        user_algo = run_nested_cv(pm, uf, table, "user_algo", 3, LEAN_SPACE, 4)
        assert report.entries["User-Only"].to_dict() == user_only.to_dict()
        assert report.entries["All Features"].to_dict() == user_algo.to_dict()

    def test_single_category_restricts_the_table(self):
        pm, uf = planted_problem(n_users=12)
        report = run_ablation(
            pm, uf, synthetic_algo_table(),
            category_sets=[frozenset({"Conceptual"})],
            n_folds=2, space=LEAN_SPACE, seed=4,
        )
        entry = report.entries["Conceptual"]
        assert entry.mode == "user_algo"
        text = report.render_markdown()
        assert "| Conceptual |" in text


class TestImportance:
    def test_aggregates_normalized_fold_importances(self):
        pm, uf = planted_problem()
        enc_names_table = synthetic_algo_table()
        report = run_importance(
            pm, uf, enc_names_table, n_folds=3,
            params=GBDTParams(num_trees=20, learning_rate=0.3, max_depth=3), seed=6,
        )
        assert report.feature_names[:15] == list(USER_FEATURE_NAMES)
        assert len(report.feature_names) == len(report.mean) == len(report.std)
        assert report.mean.sum() == pytest.approx(1.0, abs=1e-9)
        assert (report.mean >= 0).all()
        top = report.top(5)
        assert [t[0] for t in top] == [
            report.feature_names[i] for i in np.argsort(-report.mean, kind="stable")[:5]
        ]
        assert "num_interactions" in [t[0] for t in top]

    def test_markdown_lists_ranked_features(self):
        pm, uf = planted_problem(n_users=12)
        report = run_importance(
            pm, uf, synthetic_algo_table(), n_folds=2,
            params=GBDTParams(num_trees=10, max_depth=2), seed=0,
        )
        text = report.render_markdown()
        assert "| 1 |" in text
        assert "Mean importance" in text


class TestReportJson:
    def test_serialization_is_deterministic(self, tmp_path):
        pm, uf = planted_problem(n_users=12)
        report = run_nested_cv(pm, uf, None, "user_only", n_folds=2, seed=0, predictor="oracle")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(report.to_dict(), str(a))
        write_json(report.to_dict(), str(b))
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["mode"] == "user_only"
