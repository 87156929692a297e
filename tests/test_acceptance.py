"""Acceptance gate: one test per shipped guarantee.

Each function asserts one end-to-end property of the package: metric oracles,
baseline arithmetic, recommender math, the planted-structure experiment,
protocol hygiene, and report equivalences. Run with -v for one line each.
"""

import ast
import json
import math
import os
import time

import numpy as np
import pytest

from recselect import experiment
from recselect.astgraph import build_ast_graph
from recselect.algo_features import (
    assemble_algorithm_features,
    landmark_portfolio,
    load_conceptual_map,
    static_metrics_for_portfolio,
)
from recselect.cli import main
from recselect.codemetrics import analyze_file, block_complexities, halstead_counts
from recselect.data import temporal_split_per_user
from recselect.experiment import (
    FEATURE_CATEGORIES,
    SearchSpace,
    assert_user_disjoint,
    ci_half_width,
    run_ablation,
    run_importance,
    run_nested_cv,
)
from recselect.ground_truth import (
    PerformanceMatrix,
    evaluate_portfolio,
    gap_closed,
    ndcg_at_k,
    single_best_algorithm,
    virtual_best_algorithm,
)
from recselect.algo_features import AlgorithmFeatureTable
from recselect.recommenders import PortfolioConfig, algorithm_source_path, train_portfolio
from recselect.recommenders import biasedmf, bpr, implicitmf
from recselect.recommenders.base import build_train_matrix
from recselect.recommenders.ease import ease_weights
from recselect.synth import planted_two_population
from recselect.user_features import USER_FEATURE_NAMES, UserFeatureTable, user_feature_table

from conftest import default_probes

PORTFOLIO = {
    "pop": {},
    "itemknn": {"neighbors": 50},
    "userknn": {"neighbors": 50},
    "ease": {"l2": 10.0},
}

SPACE = SearchSpace(n_iter=3, inner_folds=2, distributions={
    "num_trees": {"type": "int_range", "low": 20, "high": 40},
    "learning_rate": {"type": "log_uniform", "low": 0.1, "high": 0.3},
    "max_depth": {"type": "int_range", "low": 2, "high": 3},
})


@pytest.fixture(scope="module")
def planted():
    """Full pipeline on the seeded two-population benchmark, built once."""
    t0 = time.perf_counter()
    ds = planted_two_population(seed=17)
    split = temporal_split_per_user(ds, 0.2)
    matrix = build_train_matrix(split.train)
    models = train_portfolio(matrix, PortfolioConfig({k: dict(v) for k, v in PORTFOLIO.items()}))
    pm = evaluate_portfolio(matrix, split.test, models, k=10)

    ufeats = user_feature_table(split.train)
    code, astm = static_metrics_for_portfolio(list(PORTFOLIO))
    probes = {n: temporal_split_per_user(d, 0.2) for n, d in default_probes(seed=99).items()}
    landmarks = landmark_portfolio(probes, PORTFOLIO)
    table = assemble_algorithm_features(
        code, astm, landmarks, load_conceptual_map(list(PORTFOLIO)), list(PORTFOLIO), list(probes)
    )

    user_only = run_nested_cv(pm, ufeats, None, "user_only", 10, SPACE, 17)
    user_algo = run_nested_cv(pm, ufeats, table, "user_algo", 10, SPACE, 17)
    return {
        "pm": pm,
        "ufeats": ufeats,
        "table": table,
        "user_only": user_only,
        "user_algo": user_algo,
        "pipeline_seconds": time.perf_counter() - t0,
    }


def reference_ndcg(ranking, relevant, k):
    dcg = sum(
        1.0 / math.log2(pos + 2)
        for pos, item in enumerate(ranking[:k])
        if item in relevant
    )
    ideal = sum(1.0 / math.log2(pos + 2) for pos in range(min(k, len(relevant))))
    return dcg / ideal


def test_criterion_1_ndcg_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    pool = [f"i{n:02d}" for n in range(20)]
    start = time.perf_counter()
    for _ in range(1000):
        ranking = [pool[j] for j in rng.permutation(20)[: rng.integers(1, 21)]]
        relevant = set(rng.choice(pool, size=int(rng.integers(1, 21)), replace=False))
        k = int(rng.integers(1, 16))
        got = ndcg_at_k(ranking, relevant, k=k)
        assert abs(got - reference_ndcg(ranking, relevant, k)) <= 1e-12
        assert 0.0 <= got <= 1.0
    assert time.perf_counter() - start < 1.0


def test_criterion_2_sba_vba_match_brute_force_and_plumbing(planted):
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_u, n_a = int(rng.integers(2, 13)), int(rng.integers(2, 6))
        values = rng.uniform(size=(n_u, n_a))
        pm = PerformanceMatrix(
            [f"u{i}" for i in range(n_u)], [f"a{j}" for j in range(n_a)], values
        )

        means = []
        for j in range(n_a):
            acc = 0.0
            for i in range(n_u):
                acc += float(values[i, j])
            means.append(acc / n_u)
        best = means.index(max(means))
        name, sba_mean = single_best_algorithm(pm)
        assert name == f"a{best}"
        assert sba_mean == means[best]

        # Row maxima found independently; the final mean reuses the IEEE
        # reduction so the equality check stays exact.
        maxima = [max(float(v) for v in values[i]) for i in range(n_u)]
        vba_mean = float(np.mean(maxima))
        assert virtual_best_algorithm(pm) == vba_mean
        assert vba_mean >= sba_mean

    pm = planted["pm"]
    oracle = run_nested_cv(pm, planted["ufeats"], None, "user_only", 10, SPACE, 17, predictor="oracle")
    assert oracle.methods["model"].fold_ndcg == oracle.methods["vba"].fold_ndcg
    assert oracle.methods["model"].fold_top1 == [100.0] * 10
    assert oracle.methods["model"].mean_ndcg() == pytest.approx(
        virtual_best_algorithm(pm), rel=1e-12
    )

    constant = run_nested_cv(
        pm, planted["ufeats"], None, "user_only", 10, SPACE, 17, predictor="single_best"
    )
    assert constant.methods["model"].fold_ndcg == constant.methods["sba"].fold_ndcg
    _, sba_mean = single_best_algorithm(pm)
    assert constant.methods["model"].mean_ndcg() == pytest.approx(sba_mean, rel=1e-12)


def test_criterion_3_gap_arithmetic_on_published_means():
    got = gap_closed(selector_mean=0.143, sba_mean=0.128, vba_mean=0.280)
    assert 9.0 < got < 11.0
    assert got == pytest.approx(100.0 * 0.015 / 0.152, rel=1e-12)


BRANCHY = """def sign(x):
    if x > 0 and x < 100:
        return 1
    return 0
"""

LOOPY = (
    "def total(xs):\n"
    "    out = 0\n"
    "    for x in xs:\n"
    "        out = out + x\n"
    "    return [y * 2 for y in xs if y]\n"
)

TRY_ASSERT = (
    "x = 1\n"
    "try:\n"
    "    y = x\n"
    "except ValueError:\n"
    "    y = 0\n"
    "assert y >= 0\n"
)


def test_criterion_4_code_metric_hand_tallies():
    counts = halstead_counts("a = b + 2")
    assert (
        counts.distinct_operators,
        counts.distinct_operands,
        counts.total_operators,
        counts.total_operands,
    ) == (2, 3, 2, 3)
    assert counts.volume == pytest.approx(5 * math.log2(5), rel=1e-12)
    assert counts.difficulty == 1.0

    tiny = halstead_counts("def f():\n    return 1\n")
    assert tiny.volume == 8.0

    branchy = halstead_counts(BRANCHY)
    assert branchy.volume == pytest.approx(14 * math.log2(10), rel=1e-12)
    assert branchy.difficulty == 4.0
    assert block_complexities(ast.parse(BRANCHY)) == [3]

    loopy = halstead_counts(LOOPY)
    assert loopy.volume == pytest.approx(24 * math.log2(14), rel=1e-12)
    assert loopy.difficulty == 7.0
    assert block_complexities(ast.parse(LOOPY)) == [4]

    try_assert = halstead_counts(TRY_ASSERT)
    assert try_assert.volume == 45.0
    assert try_assert.difficulty == 2.7
    assert try_assert.effort == pytest.approx(121.5, rel=1e-12)

    for algo in ("pop", "itemknn", "userknn", "biasedmf", "implicitmf", "bpr", "ease"):
        path = algorithm_source_path(algo)
        metrics = analyze_file(path)
        assert metrics.hal_effort == metrics.hal_volume * metrics.hal_difficulty
        with open(path, encoding="utf-8") as fh:
            graph = build_ast_graph(fh.read(), filename=path)
        assert graph.ast_transitivity == 0.0
        assert graph.ast_edge_count == graph.ast_node_count - 1

    for snippet in ("a = b + 2", BRANCHY, LOOPY, TRY_ASSERT):
        graph = build_ast_graph(snippet)
        assert graph.ast_transitivity == 0.0
        assert graph.ast_edge_count == graph.ast_node_count - 1


def test_criterion_5_recommender_math_oracles():
    start = time.perf_counter()

    x = np.array([
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    l2 = 0.7
    gram = x.T @ x
    b = ease_weights(gram, l2)
    g = gram + l2 * np.eye(3)
    for j in range(3):
        t = np.linalg.solve(g, gram[:, j])
        s = np.linalg.solve(g, np.eye(3)[:, j])
        mu = t[j] / s[j]
        np.testing.assert_allclose(b[:, j], t - mu * s, atol=1e-10)
    assert np.all(np.diag(b) == 0.0)

    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(10):
        k = 4
        mu0 = float(rng.normal())
        b_u, b_i = float(rng.normal()), float(rng.normal())
        p_u, q_i = rng.normal(size=k), rng.normal(size=k)
        rating, reg = float(rng.uniform(1, 5)), 0.3
        g_bu, g_bi, g_p, g_q = biasedmf.sample_gradients(mu0, b_u, b_i, p_u, q_i, rating, reg)
        fd_bu = (biasedmf.sample_loss(mu0, b_u + eps, b_i, p_u, q_i, rating, reg)
                 - biasedmf.sample_loss(mu0, b_u - eps, b_i, p_u, q_i, rating, reg)) / (2 * eps)
        assert np.isclose(g_bu, fd_bu, rtol=1e-4, atol=1e-7)
        fd_bi = (biasedmf.sample_loss(mu0, b_u, b_i + eps, p_u, q_i, rating, reg)
                 - biasedmf.sample_loss(mu0, b_u, b_i - eps, p_u, q_i, rating, reg)) / (2 * eps)
        assert np.isclose(g_bi, fd_bi, rtol=1e-4, atol=1e-7)
        for axis in range(k):
            step = np.zeros(k)
            step[axis] = eps
            fd_p = (biasedmf.sample_loss(mu0, b_u, b_i, p_u + step, q_i, rating, reg)
                    - biasedmf.sample_loss(mu0, b_u, b_i, p_u - step, q_i, rating, reg)) / (2 * eps)
            assert np.isclose(g_p[axis], fd_p, rtol=1e-4, atol=1e-7)
            fd_q = (biasedmf.sample_loss(mu0, b_u, b_i, p_u, q_i + step, rating, reg)
                    - biasedmf.sample_loss(mu0, b_u, b_i, p_u, q_i - step, rating, reg)) / (2 * eps)
            assert np.isclose(g_q[axis], fd_q, rtol=1e-4, atol=1e-7)

    reg = 0.05

    def bpr_loss(p_u, q_i, q_j):
        margin = float(p_u @ (q_i - q_j))
        penalty = float(p_u @ p_u + q_i @ q_i + q_j @ q_j)
        return bpr.pairwise_loss(margin) + 0.5 * reg * penalty

    for _ in range(10):
        p_u, q_i, q_j = rng.normal(size=(3, 4))
        g_p, g_i, g_j = bpr.sample_gradients(p_u, q_i, q_j, reg)
        for axis in range(4):
            step = np.zeros(4)
            step[axis] = eps
            fd = (bpr_loss(p_u + step, q_i, q_j) - bpr_loss(p_u - step, q_i, q_j)) / (2 * eps)
            assert np.isclose(g_p[axis], fd, rtol=1e-4, atol=1e-7)
            fd = (bpr_loss(p_u, q_i + step, q_j) - bpr_loss(p_u, q_i - step, q_j)) / (2 * eps)
            assert np.isclose(g_i[axis], fd, rtol=1e-4, atol=1e-7)
            fd = (bpr_loss(p_u, q_i, q_j + step) - bpr_loss(p_u, q_i, q_j - step)) / (2 * eps)
            assert np.isclose(g_j[axis], fd, rtol=1e-4, atol=1e-7)

    from recselect.data import Dataset, Interaction
    rows = [
        ("u0", "a"), ("u0", "b"), ("u1", "b"), ("u1", "c"),
        ("u2", "c"), ("u2", "d"), ("u3", "d"), ("u3", "a"),
    ]
    ds = Dataset("four", [Interaction(u, i, 1.0, float(t)) for t, (u, i) in enumerate(rows)])
    m = build_train_matrix(ds)
    csr = m.matrix.tocsr()
    csr_t = m.matrix.T.tocsr()
    alpha, als_reg = 10.0, 0.5
    p = 0.01 * np.random.default_rng(0).standard_normal((m.n_users, 3))
    q = 0.01 * np.random.default_rng(1).standard_normal((m.n_items, 3))
    obj = implicitmf.weighted_objective(p, q, csr, alpha, als_reg)
    for _ in range(3):
        p = implicitmf.solve_side(q, csr, alpha, als_reg)
        after_p = implicitmf.weighted_objective(p, q, csr, alpha, als_reg)
        assert after_p <= obj + 1e-9
        q = implicitmf.solve_side(p, csr_t, alpha, als_reg)
        after_q = implicitmf.weighted_objective(p, q, csr, alpha, als_reg)
        assert after_q <= after_p + 1e-9
        obj = after_q

    assert time.perf_counter() - start < 10.0


def test_criterion_6_planted_structure_end_to_end(planted):
    pm = planted["pm"]
    _, sba_mean = single_best_algorithm(pm)
    vba_mean = virtual_best_algorithm(pm)
    assert vba_mean - sba_mean >= 0.02

    main_rows = [i for i, u in enumerate(pm.users) if u.startswith("main")]
    niche_rows = [i for i, u in enumerate(pm.users) if u.startswith("niche")]
    assert len(main_rows) == 100 and len(niche_rows) == 100
    main_means = pm.values[main_rows].mean(axis=0)
    niche_means = pm.values[niche_rows].mean(axis=0)
    pop_col = pm.algorithms.index("pop")
    knn_col = pm.algorithms.index("itemknn")
    assert main_means[pop_col] == max(main_means)
    assert niche_means[knn_col] > niche_means[pop_col]

    ufeats = planted["ufeats"]
    col = USER_FEATURE_NAMES.index("avg_item_pop_interacted")
    main_pop = [ufeats.matrix[i, col] for i, u in enumerate(ufeats.users) if u.startswith("main")]
    niche_pop = [ufeats.matrix[i, col] for i, u in enumerate(ufeats.users) if u.startswith("niche")]
    assert max(main_pop) < min(niche_pop)

    user_only = planted["user_only"]
    model_folds = user_only.methods["model"].fold_ndcg
    sba_folds = user_only.methods["sba"].fold_ndcg
    wins = sum(m > s for m, s in zip(model_folds, sba_folds))
    assert wins >= 9

    user_algo = planted["user_algo"]
    top1 = user_algo.methods["model"].fold_top1
    chance = 100.0 / len(pm.algorithms)
    half = ci_half_width(top1)
    assert float(np.mean(top1)) > chance
    assert float(np.mean(top1)) - half > chance

    assert planted["pipeline_seconds"] < 300.0


def test_criterion_7_protocol_hygiene(planted, tmp_path, monkeypatch):
    with pytest.raises(AssertionError, match="more than one fold"):
        assert_user_disjoint([["a", "b"], ["b", "c"]])

    calls = []
    original = experiment.assert_user_disjoint

    def counting(folds):
        calls.append(len(folds))
        return original(folds)

    monkeypatch.setattr(experiment, "assert_user_disjoint", counting)
    fits = []
    original_fit = experiment.standardize_fit

    def spying_fit(x):
        fits.append(np.asarray(x))
        return original_fit(x)

    monkeypatch.setattr(experiment, "standardize_fit", spying_fit)
    pm, ufeats = planted["pm"], planted["ufeats"]
    run_nested_cv(pm, ufeats, None, "user_only", 5, SPACE, 17, predictor="single_best")
    assert calls == [5]
    assert len(fits) == 5
    global_mean = ufeats.matrix.mean(axis=0)
    for fold_fit in fits:
        assert fold_fit.shape[0] == 160
    assert any(
        not np.allclose(fold_fit.mean(axis=0), global_mean) for fold_fit in fits
    )
    monkeypatch.undo()

    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()

    def cfg(name, payload):
        path = cfg_dir / name
        path.write_text(json.dumps(payload))
        return str(path)

    synth_cfg = cfg("synth.json", {"datasets": [
        {"kind": "planted", "name": "bench", "seed": 5,
         "params": {"users_per_group": 30, "head_items": 10, "clusters": 6, "cluster_size": 12}},
    ]})
    synth_a, synth_b = str(tmp_path / "synth_a"), str(tmp_path / "synth_b")
    assert main(["synth", "--config", synth_cfg, "--out", synth_a]) == 0
    assert main(["synth", "--config", synth_cfg, "--out", synth_b]) == 0

    bench = os.path.join(synth_a, "bench.csv")
    gt_cfg = cfg("gt.json", {
        "dataset": bench, "seed": 3,
        "portfolio": {"algorithms": [
            "pop",
            {"name": "itemknn", "params": {"neighbors": 20}},
            {"name": "bpr", "params": {"factors": 4, "epochs": 5}},
            {"name": "ease", "params": {"l2": 5.0}},
        ]},
    })
    feat_cfg = cfg("features.json", {
        "dataset": bench, "seed": 3,
        "portfolio": {"algorithms": ["pop", {"name": "ease", "params": {"l2": 5.0}}]},
        "probes": [{"name": "skew", "kind": "popularity_skewed",
                    "params": {"n_users": 20, "n_items": 15, "per_user": 5}}],
    })
    pairs = [("gt", gt_cfg), ("features", feat_cfg)]
    dirs = {}
    for stage, config_path in pairs:
        for run in ("a", "b"):
            out = str(tmp_path / f"{stage}_{run}")
            cmd = "ground-truth" if stage == "gt" else "features"
            assert main([cmd, "--config", config_path, "--out", out]) == 0
            dirs[(stage, run)] = out

    eval_cfg = cfg("eval.json", {
        "performance_matrix": os.path.join(dirs[("gt", "a")], "performance_matrix.csv"),
        "user_features": os.path.join(dirs[("features", "a")], "user_features.csv"),
        "space": {"n_iter": 2, "inner_folds": 2, "distributions": {
            "num_trees": {"type": "int_range", "low": 10, "high": 15},
            "max_depth": {"type": "int_range", "low": 2, "high": 2},
        }},
        "folds": 3, "seed": 3,
    })
    for run in ("a", "b"):
        out = str(tmp_path / f"eval_{run}")
        assert main(["evaluate", "--config", eval_cfg, "--out", out,
                     "--mode", "user_only"]) == 0
        dirs[("eval", run)] = out

    compared = 0
    stage_dirs = [("synth", synth_a, synth_b)] + [
        (stage, dirs[(stage, "a")], dirs[(stage, "b")]) for stage in ("gt", "features", "eval")
    ]
    for stage, dir_a, dir_b in stage_dirs:
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            if os.path.isdir(os.path.join(dir_a, name)):
                continue
            with open(os.path.join(dir_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(dir_b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, f"{stage}/{name} differs between identical runs"
            compared += 1
    assert compared >= 10


def synthetic_pair_table():
    return AlgorithmFeatureTable(
        algorithms=["a", "b", "c"],
        numeric_names=["sloc", "hal_volume", "perf_on_x", "handles_cold_start"],
        numeric=np.array([
            [10.0, 100.0, 0.3, 1.0],
            [20.0, 250.0, 0.4, 0.0],
            [30.0, 400.0, 0.5, 0.0],
        ]),
        categorical_names=["family", "learning_paradigm"],
        categorical=[
            ("Popularity", "Counting"),
            ("Neighborhood", "Item-based"),
            ("Autoencoder", "Closed-form"),
        ],
    )


def test_criterion_8_interval_and_importance_statistics():
    assert ci_half_width([0.1, 0.2, 0.3]) == pytest.approx(0.2484137711719545, abs=1e-4)

    rng = np.random.default_rng(5)
    n = 60
    driver = rng.uniform(size=n)
    feats = rng.normal(0.0, 0.01, size=(n, len(USER_FEATURE_NAMES)))
    feats[:, 0] = driver
    users = [f"u{i:02d}" for i in range(n)]
    ufeats = UserFeatureTable(users, USER_FEATURE_NAMES, feats)
    values = np.column_stack([driver, 0.45 + 0.1 * driver, 0.5 - 0.05 * driver])
    pm = PerformanceMatrix(users, ["a", "b", "c"], values)

    report = run_importance(pm, ufeats, synthetic_pair_table(), n_folds=5, seed=3)
    assert float(report.mean.sum()) == pytest.approx(1.0, abs=1e-6)
    assert np.all(report.mean >= 0.0)
    assert report.top(1)[0][0] == USER_FEATURE_NAMES[0]


def test_criterion_9_ablation_endpoints_match_dedicated_runs(planted):
    pm, ufeats, table = planted["pm"], planted["ufeats"], planted["table"]
    full = frozenset(FEATURE_CATEGORIES)
    ablation = run_ablation(pm, ufeats, table, [frozenset(), full], n_folds=3, space=SPACE, seed=11)

    user_only_ref = run_nested_cv(pm, ufeats, None, "user_only", 3, SPACE, 11)
    user_algo_ref = run_nested_cv(pm, ufeats, table, "user_algo", 3, SPACE, 11)

    assert ablation.entries["User-Only"].to_dict() == user_only_ref.to_dict()
    assert ablation.entries["All Features"].to_dict() == user_algo_ref.to_dict()
