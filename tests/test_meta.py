"""Preprocessing, meta-dataset formats, and the boosted-tree learner.

Split search is verified against an O(n^2 d) brute-force scan that shares no
code with the production cumsum path; structured fixtures freeze the
tie-breaking rules (lowest split position, then lowest feature). The presorted
split search and the flat level-wise tree walk are checked bitwise against
an argsort-per-node search and a recursive walk kept here as references.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recselect.algo_features import AlgorithmFeatureTable
from recselect.ground_truth import PerformanceMatrix
from recselect.meta.formats import (
    EncodedAlgoFeatures,
    build_long,
    build_wide,
    encode_algo_features,
    predict_scores_user_algo,
    predict_scores_user_only,
)
from recselect.meta import gbdt
from recselect.meta.gbdt import (
    BoostedEnsemble,
    GBDTParams,
    RegressionTree,
    _SortedFit,
    fit_gbdt,
    fit_multi_output_gbdt,
)
from recselect.meta.preprocess import (
    OneHotMap,
    one_hot_apply,
    one_hot_fit,
    standardize_apply,
    standardize_fit,
)


class TestScaler:
    def test_population_standard_deviation(self):
        params = standardize_fit(np.array([[1.0], [2.0], [3.0]]))
        assert params.mean[0] == 2.0
        assert params.scale[0] == pytest.approx(0.816496580927726)
        z = standardize_apply(params, np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(
            z[:, 0], [-1.224744871391589, 0.0, 1.224744871391589]
        )

    def test_constant_column_keeps_unit_scale(self):
        params = standardize_fit(np.full((5, 1), 7.0))
        assert params.scale[0] == 1.0
        z = standardize_apply(params, np.full((3, 1), 7.0))
        np.testing.assert_array_equal(z, np.zeros((3, 1)))

    def test_transform_is_invertible(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4)) * np.array([1.0, 10.0, 0.1, 100.0])
        params = standardize_fit(x)
        z = standardize_apply(params, x)
        np.testing.assert_allclose(z * params.scale + params.mean, x, atol=1e-9)

    def test_rejects_non_2d_or_empty(self):
        with pytest.raises(ValueError):
            standardize_fit(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            standardize_fit(np.empty((0, 3)))


class TestOneHot:
    def test_sorted_vocabulary_and_names(self):
        mapping = one_hot_fit([("b", "x"), ("a", "y"), ("b", "y")])
        assert mapping.categories == (("a", "b"), ("x", "y"))
        assert mapping.output_names(["family", "learning_paradigm"]) == [
            "family=a", "family=b", "learning_paradigm=x", "learning_paradigm=y",
        ]
        assert mapping.width == 4

    def test_apply_sets_one_bit_per_block(self):
        mapping = one_hot_fit([("a", "x"), ("b", "y")])
        out = one_hot_apply(mapping, [("b", "x")])
        np.testing.assert_array_equal(out, [[0.0, 1.0, 1.0, 0.0]])

    def test_unseen_category_encodes_as_zero_block(self):
        mapping = one_hot_fit([("a",), ("b",)])
        out = one_hot_apply(mapping, [("c",)])
        np.testing.assert_array_equal(out, [[0.0, 0.0]])

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(ValueError):
            one_hot_fit([("a", "x"), ("b",)])

    def test_empty_rows_give_empty_map(self):
        mapping = one_hot_fit([])
        assert mapping.width == 0


def synthetic_algo_table():
    return AlgorithmFeatureTable(
        algorithms=["x", "y", "z"],
        numeric_names=["sloc", "hal_volume", "perf_on_a", "handles_cold_start"],
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


class TestEncoding:
    def test_numeric_block_is_standardized(self):
        enc = encode_algo_features(synthetic_algo_table())
        numeric = enc.matrix[:, :4]
        np.testing.assert_allclose(numeric.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(numeric[:, :3].std(axis=0), 1.0, atol=1e-12)

    def test_feature_names_extend_with_one_hot(self):
        enc = encode_algo_features(synthetic_algo_table())
        assert enc.feature_names[:4] == ["sloc", "hal_volume", "perf_on_a", "handles_cold_start"]
        assert "family=Popularity" in enc.feature_names
        assert "learning_paradigm=Closed-form" in enc.feature_names
        assert enc.matrix.shape == (3, 4 + 3 + 3)

    def test_rows_address_by_algorithm_id(self):
        enc = encode_algo_features(synthetic_algo_table())
        np.testing.assert_array_equal(enc.aligned(["z", "x"])[0], enc.row("z"))
        np.testing.assert_array_equal(enc.aligned(["z", "x"])[1], enc.row("x"))


def small_pm():
    return PerformanceMatrix(
        users=["u0", "u1", "u2"],
        algorithms=["x", "y"],
        values=np.array([[0.1, 0.9], [0.5, 0.4], [0.7, 0.2]]),
    )


class TestMetaDatasets:
    def test_wide_targets_are_matrix_rows(self):
        pm = small_pm()
        user_x = np.arange(6.0).reshape(3, 2)
        x, y = build_wide(user_x, pm.values)
        np.testing.assert_array_equal(y, pm.values)
        np.testing.assert_array_equal(x, user_x)

    def test_wide_row_subset_follows_user_list(self):
        pm = small_pm()
        rows = np.array([2, 0])
        _, y = build_wide(np.zeros((2, 1)), pm.values[rows])
        np.testing.assert_array_equal(y[0], pm.row("u2"))
        np.testing.assert_array_equal(y[1], pm.row("u0"))

    def test_long_is_user_major_algorithm_minor(self):
        pm = small_pm()
        enc = EncodedAlgoFeatures(["x", "y"], ["a0"], np.array([[10.0], [20.0]]))
        user_x = np.array([[1.0], [2.0], [3.0]])
        x, y = build_long(user_x, pm.values, enc.aligned(pm.algorithms))
        assert x.shape == (6, 2)
        np.testing.assert_array_equal(x[:4], [[1.0, 10.0], [1.0, 20.0], [2.0, 10.0], [2.0, 20.0]])
        assert y[0] == pm.lookup("u0", "x")
        assert y[1] == pm.lookup("u0", "y")
        assert y[2] == pm.lookup("u1", "x")

    def test_long_invariant_to_algo_table_row_order(self):
        pm = small_pm()
        fwd = EncodedAlgoFeatures(["x", "y"], ["a0"], np.array([[10.0], [20.0]]))
        rev = EncodedAlgoFeatures(["y", "x"], ["a0"], np.array([[20.0], [10.0]]))
        user_x = np.array([[1.0], [2.0], [3.0]])
        a = build_long(user_x, pm.values, fwd.aligned(pm.algorithms))
        b = build_long(user_x, pm.values, rev.aligned(pm.algorithms))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_long_equals_pair_by_pair_reference(self):
        rng = np.random.default_rng(4)
        users = [f"u{i}" for i in range(5)]
        algorithms = ["x", "y", "z"]
        pm = PerformanceMatrix(users, algorithms, rng.random((5, 3)))
        enc = EncodedAlgoFeatures(["z", "x", "y"], ["a0", "a1"], rng.normal(size=(3, 2)))
        rows = np.array([3, 0, 4])
        user_x = rng.normal(size=(3, 4))
        long_x, long_y = build_long(user_x, pm.values[rows], enc.aligned(algorithms))
        x, y = [], []
        for ui, row in enumerate(rows):
            for algorithm in algorithms:
                x.append(np.concatenate([user_x[ui], enc.row(algorithm)]))
                y.append(pm.lookup(users[row], algorithm))
        assert long_x.tobytes() == np.array(x).tobytes()
        assert long_y.tobytes() == np.array(y).tobytes()

    def test_row_count_mismatch_rejected(self):
        pm = small_pm()
        algo_x = np.zeros((2, 1))
        with pytest.raises(ValueError, match="2 user feature rows do not match 3 target rows"):
            build_wide(np.zeros((2, 1)), pm.values)
        with pytest.raises(ValueError, match="2 user feature rows do not match 3 target rows"):
            build_long(np.zeros((2, 1)), pm.values, algo_x)
        with pytest.raises(ValueError, match="2 target columns do not match 3 algorithm rows"):
            build_long(np.zeros((3, 1)), pm.values, np.zeros((3, 1)))


def brute_force_stump(x, y, min_samples_leaf=1):
    """Best single split by direct SSE scan; returns (gain, sse_after) or None."""
    n, d = x.shape
    base = float(((y - y.mean()) ** 2).sum())
    best = None
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        for s in range(1, n):
            if not xs[s - 1] < xs[s]:
                continue
            if s < min_samples_leaf or n - s < min_samples_leaf:
                continue
            left, right = ys[:s], ys[s:]
            sse = float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())
            gain = base - sse
            if best is None or gain > best[0] + 1e-15:
                best = (gain, sse)
    if best is None or best[0] <= 1e-12:
        return None
    return best


def stump_params(**overrides):
    base = dict(num_trees=1, learning_rate=1.0, max_depth=1, min_samples_leaf=1, seed=0)
    base.update(overrides)
    return GBDTParams(**base)


class TestSplitSearch:
    def test_step_function_is_fit_exactly(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbdt(x, y, stump_params())
        tree = model.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        assert tree.gain[0] == pytest.approx(1.0)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-12)

    def test_min_samples_leaf_vetoes_the_greedy_split(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        model = fit_gbdt(x, y, stump_params(min_samples_leaf=2))
        tree = model.trees[0]
        assert tree.threshold[0] == 2.5
        assert tree.gain[0] == pytest.approx(0.25)

    def test_gain_tie_prefers_lower_split_position(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_gbdt(x, y, stump_params())
        assert model.trees[0].threshold[0] == 1.5

    def test_gain_tie_prefers_lower_feature_index(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbdt(x, y, stump_params())
        assert model.trees[0].feature[0] == 0

    def test_constant_target_grows_no_split(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.full(3, 4.2)
        model = fit_gbdt(x, y, stump_params())
        assert model.trees[0].feature[0] == -1
        np.testing.assert_allclose(model.predict(x), y)
        np.testing.assert_array_equal(model.feature_importance(), [0.0])

    def test_constant_feature_grows_no_split(self):
        x = np.ones((4, 1))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_gbdt(x, y, stump_params())
        assert model.trees[0].feature[0] == -1

    def test_agrees_with_brute_force_on_random_data(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            n = int(rng.integers(4, 25))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d))
            if trial % 3 == 0:
                x = np.round(x)  # force duplicate values
            y = rng.normal(size=n)
            msl = int(rng.integers(1, 3))
            want = brute_force_stump(x, y, msl)
            model = fit_gbdt(x, y, stump_params(min_samples_leaf=msl))
            tree = model.trees[0]
            if want is None:
                assert tree.feature[0] == -1
            else:
                assert tree.feature[0] >= 0
                sse = float(((y - model.predict(x)) ** 2).sum())
                assert sse == pytest.approx(want[1], abs=1e-9)
                assert tree.gain[0] == pytest.approx(want[0], abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stump_never_beats_brute_force(self, data):
        n = data.draw(st.integers(4, 12))
        xs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        ys = data.draw(
            st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=n, max_size=n)
        )
        x = np.array(xs, dtype=np.float64)[:, None]
        y = np.array(ys, dtype=np.float64)
        want = brute_force_stump(x, y)
        model = fit_gbdt(x, y, stump_params())
        sse = float(((y - model.predict(x)) ** 2).sum())
        base = float(((y - y.mean()) ** 2).sum())
        target = want[1] if want is not None else base
        assert sse <= target + 1e-6


def argsort_per_node_split(x_node, y_node, min_samples_leaf):
    """Reference split search: a fresh stable argsort of the node's rows."""
    n, n_features = x_node.shape
    if n_features == 0:
        return None
    order = np.argsort(x_node, axis=0, kind="stable")
    x_sorted = np.take_along_axis(x_node, order, axis=0)
    y_sorted = y_node[order]
    cum = np.cumsum(y_sorted, axis=0)
    cum_sq = np.cumsum(y_sorted * y_sorted, axis=0)
    total, total_sq = cum[-1], cum_sq[-1]
    sse_node = float(total_sq[0] - total[0] * total[0] / n)
    counts = np.arange(1, n, dtype=np.float64)[:, None]
    left_sum, left_sq = cum[:-1], cum_sq[:-1]
    right_sum, right_sq = total - left_sum, total_sq - left_sq
    sse = (left_sq - left_sum * left_sum / counts) + (right_sq - right_sum * right_sum / (n - counts))
    gains = sse_node - sse
    valid = x_sorted[:-1] < x_sorted[1:]
    if min_samples_leaf > 1:
        s = np.arange(1, n)
        valid &= ((s >= min_samples_leaf) & (n - s >= min_samples_leaf))[:, None]
    gains = np.where(valid, gains, -np.inf)
    flat = int(np.argmax(gains))
    best_gain = float(gains.flat[flat])
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return None
    s, feature = divmod(flat, n_features)
    return feature, float(0.5 * (x_sorted[s, feature] + x_sorted[s + 1, feature])), best_gain


def recursive_walk(tree, row, node=0):
    """Reference prediction for one row: follow child links until a leaf."""
    if tree.feature[node] < 0:
        return tree.value[node]
    go_left = row[tree.feature[node]] <= tree.threshold[node]
    return recursive_walk(tree, row, tree.left[node] if go_left else tree.right[node])


@st.composite
def tree_problems(draw):
    """Small x/y sets, often with repeated feature values, plus tree limits.

    Targets are full-precision doubles, so summing tied rows in another order
    changes the last bits of a cumsum and the bitwise comparisons notice it.
    """
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    grid = draw(st.booleans())
    cell = st.integers(-3, 3).map(float) if grid else st.floats(-10, 10, allow_nan=False, width=32)
    x = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)), dtype=np.float64).reshape(n, d)
    seed = draw(st.integers(0, 2**32 - 1))
    y = np.random.default_rng(seed).normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return x, y, draw(st.integers(1, 5)), draw(st.integers(1, 4))


class TestFlatTrees:
    @settings(max_examples=80, deadline=None)
    @given(tree_problems(), st.integers(0, 2**32 - 1))
    def test_batch_predict_equals_row_by_row_and_recursive_walk(self, problem, seed):
        x, y, max_depth, min_samples_leaf = problem
        tree = RegressionTree().fit(x, y, max_depth, min_samples_leaf)
        probe = np.vstack([x, np.random.default_rng(seed).uniform(-12, 12, size=(10, x.shape[1]))])
        batch = tree.predict(probe)
        one_by_one = np.concatenate([tree.predict(row[None, :]) for row in probe])
        walked = np.array([recursive_walk(tree, row) for row in probe])
        np.testing.assert_array_equal(batch, one_by_one)
        np.testing.assert_array_equal(batch, walked)

    @settings(max_examples=80, deadline=None)
    @given(tree_problems())
    def test_fitted_values_equal_predictions_on_training_rows(self, problem):
        x, y, max_depth, min_samples_leaf = problem
        tree = RegressionTree().fit(x, y, max_depth, min_samples_leaf)
        np.testing.assert_array_equal(tree.fitted_values, tree.predict(x))

    @settings(max_examples=80, deadline=None)
    @given(tree_problems(), st.data())
    def test_presorted_split_equals_argsort_per_node(self, problem, data):
        x, y, _, min_samples_leaf = problem
        keep = data.draw(st.lists(st.booleans(), min_size=len(y), max_size=len(y)))
        rows = np.flatnonzero(keep)  # a node's rows: any ascending subset of two or more
        if rows.size < 2:
            rows = np.arange(len(y))
        fit = _SortedFit(x, 1, min_samples_leaf)
        state = fit.search_state(rows, 0, fit.order)
        got = None if state is None else fit.best_split(np.column_stack([y, y * y]), state)
        want = argsort_per_node_split(x[rows], y[rows], min_samples_leaf)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(tree_problems())
    def test_tree_equals_one_grown_with_argsort_per_node(self, problem):
        x, y, max_depth, min_samples_leaf = problem
        tree = RegressionTree().fit(x, y, max_depth, min_samples_leaf)
        nodes = []  # (feature, threshold, gain, value) in depth-first preorder

        def grow(idx, depth):
            nodes.append((-1, 0.0, 0.0, float(y[idx].mean())))
            node = len(nodes) - 1
            if depth >= max_depth or idx.size < 2 * min_samples_leaf:
                return
            split = argsort_per_node_split(x[idx], y[idx], min_samples_leaf)
            if split is None:
                return
            feature, threshold, gain = split
            go_left = x[idx, feature] <= threshold
            if go_left.all() or not go_left.any():
                return
            nodes[node] = (feature, threshold, gain, nodes[node][3])
            grow(idx[go_left], depth + 1)
            grow(idx[~go_left], depth + 1)

        grow(np.arange(len(y)), 0)
        assert list(zip(tree.feature.tolist(), tree.threshold.tolist(),
                        tree.gain.tolist(), tree.value.tolist())) == nodes

    def test_boosting_from_fitted_values_matches_predicting_the_rows(self):
        rng = np.random.default_rng(3)
        x = np.round(rng.normal(size=(60, 3)), 1)
        y = np.sin(x[:, 0]) + rng.normal(scale=0.1, size=60)
        model = fit_gbdt(x, y, GBDTParams(num_trees=25, learning_rate=0.3, max_depth=3))
        assert model.train_mse_trace[-1] == float(np.mean((y - model.predict(x)) ** 2))
        assert all(tree.fitted_values is None for tree in model.trees)


class TestBoosting:
    def regression_problem(self, seed=0, n=80):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(n, 3))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + 0.01 * rng.normal(size=n)
        return x, y

    def test_training_mse_never_increases(self):
        x, y = self.regression_problem()
        model = fit_gbdt(x, y, GBDTParams(num_trees=40, learning_rate=0.5, max_depth=2))
        trace = np.array(model.train_mse_trace)
        assert trace.shape == (40,)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] < trace[0]

    def test_zero_trees_predicts_the_target_mean(self):
        x, y = self.regression_problem()
        model = fit_gbdt(x, y, GBDTParams(num_trees=0))
        np.testing.assert_allclose(model.predict(x), np.full_like(y, y.mean()))
        assert model.train_mse_trace == []

    def test_importance_concentrates_on_the_driving_feature(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 3))
        y = 3.0 * x[:, 0] + 0.01 * rng.normal(size=120)
        model = fit_gbdt(x, y, GBDTParams(num_trees=30, learning_rate=0.3, max_depth=2))
        importance = model.feature_importance()
        assert importance.sum() == pytest.approx(1.0)
        assert importance[0] > 0.9

    def test_full_subsample_ignores_the_seed(self):
        x, y = self.regression_problem()
        a = fit_gbdt(x, y, GBDTParams(num_trees=10, subsample=1.0, seed=1))
        b = fit_gbdt(x, y, GBDTParams(num_trees=10, subsample=1.0, seed=999))
        np.testing.assert_array_equal(a.predict(x), b.predict(x))

    def test_partial_subsample_is_seed_deterministic(self):
        x, y = self.regression_problem()
        a = fit_gbdt(x, y, GBDTParams(num_trees=10, subsample=0.6, seed=3))
        b = fit_gbdt(x, y, GBDTParams(num_trees=10, subsample=0.6, seed=3))
        c = fit_gbdt(x, y, GBDTParams(num_trees=10, subsample=0.6, seed=4))
        np.testing.assert_array_equal(a.predict(x), b.predict(x))
        assert not np.array_equal(a.predict(x), c.predict(x))

    def test_deeper_trees_fit_train_data_at_least_as_well(self):
        x, y = self.regression_problem()
        shallow = fit_gbdt(x, y, GBDTParams(num_trees=25, learning_rate=0.3, max_depth=1))
        deep = fit_gbdt(x, y, GBDTParams(num_trees=25, learning_rate=0.3, max_depth=4))
        assert deep.train_mse_trace[-1] <= shallow.train_mse_trace[-1] + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_gbdt(np.ones(4), np.ones(4), GBDTParams())
        with pytest.raises(ValueError):
            fit_gbdt(np.ones((4, 2)), np.ones(3), GBDTParams())
        with pytest.raises(ValueError):
            fit_gbdt(np.empty((0, 2)), np.empty(0), GBDTParams())


class TestMultiOutput:
    def test_columns_match_independent_single_output_fits(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 3))
        y = np.column_stack([x[:, 0] ** 2, np.cos(x[:, 1])])
        params = GBDTParams(num_trees=12, learning_rate=0.3, max_depth=2, seed=7)
        multi = fit_multi_output_gbdt(x, y, params)
        assert multi.n_outputs == 2
        for j in range(2):
            solo_params = GBDTParams(
                num_trees=12, learning_rate=0.3, max_depth=2, seed=7 + j
            )
            solo = fit_gbdt(x, y[:, j], solo_params)
            np.testing.assert_array_equal(multi.predict(x)[:, j], solo.predict(x))

    def test_importance_is_mean_of_columns_and_sums_to_one(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 4))
        y = np.column_stack([2 * x[:, 0], -3 * x[:, 1]])
        multi = fit_multi_output_gbdt(x, y, GBDTParams(num_trees=15, max_depth=2))
        importance = multi.feature_importance()
        assert importance.sum() == pytest.approx(1.0)
        per_column = np.mean(
            [e.feature_importance() for e in multi.ensembles], axis=0
        )
        np.testing.assert_allclose(importance, per_column)

    def test_one_dimensional_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_multi_output_gbdt(np.ones((4, 2)), np.ones(4), GBDTParams())

    def test_each_output_keeps_every_param_but_the_seed(self):
        params = GBDTParams(num_trees=3, learning_rate=0.2, max_depth=2, min_samples_leaf=2,
                            subsample=0.8, seed=5)
        multi = fit_multi_output_gbdt(np.arange(20.0).reshape(10, 2), np.ones((10, 3)), params)
        assert [e.params for e in multi.ensembles] == [replace(params, seed=5 + j) for j in range(3)]


def reference_tree(x, y, max_depth, min_samples_leaf):
    """Reference tree: one stable argsort of every column, children filtered from the parent's order.

    Returns the node arrays in depth-first preorder, the deepest leaf's level
    and each row's leaf value, as flat attributes ``recursive_walk`` can read.
    """
    n_rows, n_features = x.shape
    nodes = []  # [feature, threshold, left, right, value, gain]
    fitted = np.empty(n_rows)
    deepest = [0]

    def best_split(order):
        n = order.shape[1]
        if n_features == 0:
            return None
        x_sorted = x[order, np.arange(n_features)[:, None]]
        lo, hi = min_samples_leaf - 1, n - min_samples_leaf
        j, feature = np.nonzero((x_sorted[:, lo:hi] < x_sorted[:, lo + 1:hi + 1]).T)
        if j.size == 0:
            return None
        j += lo
        y_sorted = y[order]
        cum = y_sorted.cumsum(axis=1)
        cum_sq = (y_sorted * y_sorted).cumsum(axis=1)
        sse_node = float(cum_sq[0, -1] - cum[0, -1] * cum[0, -1] / n)
        total, total_sq = cum[feature, -1], cum_sq[feature, -1]
        left_sum, left_sq = cum[feature, j], cum_sq[feature, j]
        counts = j + 1.0
        right_sum, right_sq = total - left_sum, total_sq - left_sq
        sse = (left_sq - left_sum * left_sum / counts) + (right_sq - right_sum * right_sum / (n - counts))
        gains = sse_node - sse
        best = int(gains.argmax())
        if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
            return None
        f, last = int(feature[best]), int(j[best])
        return f, float(0.5 * (x_sorted[f, last] + x_sorted[f, last + 1])), float(gains[best])

    def grow(idx, order, depth):
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(y[idx].sum()) / idx.shape[0], 0.0])
        deepest[0] = max(deepest[0], depth)
        split = None
        if depth < max_depth and idx.shape[0] >= 2 * min_samples_leaf:
            split = best_split(order)
        if split is not None:
            go_left = x[idx, split[0]] <= split[1]
            if np.count_nonzero(go_left) in (0, idx.shape[0]):
                split = None
        if split is None:
            fitted[idx] = nodes[node][4]
            return node
        nodes[node][0], nodes[node][1], nodes[node][5] = split
        member = np.zeros(n_rows, dtype=bool)
        member[idx[go_left]] = True
        in_left = member[order]
        nodes[node][2] = grow(idx[go_left], order[in_left].reshape(n_features, -1), depth + 1)
        nodes[node][3] = grow(idx[~go_left], order[~in_left].reshape(n_features, -1), depth + 1)
        return node

    grow(np.arange(n_rows), np.argsort(x, axis=0, kind="stable").T, 0)
    columns = list(zip(*nodes))
    dtypes = [np.intp, np.float64, np.intp, np.intp, np.float64, np.float64]
    names = ["feature", "threshold", "left", "right", "value", "gain"]
    tree = SimpleNamespace(**{name: np.array(col, dtype=dt) for name, col, dt in zip(names, columns, dtypes)})
    tree.depth, tree.fitted_values = deepest[0], fitted
    return tree


def reference_gbdt(x, y, params):
    """Reference boosting: each tree on ``x[rows]`` with its own argsort.

    Returns (trees, train_mse_trace, feature_importance).
    """
    n = x.shape[0]
    rng = np.random.default_rng(params.seed) if params.subsample < 1.0 else None
    current = np.full(n, float(y.mean()))
    trees, trace = [], []
    for _ in range(params.num_trees):
        residual = y - current
        rows = slice(None)
        if rng is not None:
            size = max(1, int(round(params.subsample * n)))
            rows = np.sort(rng.choice(n, size=size, replace=False))
        tree = reference_tree(x[rows], residual[rows], params.max_depth, params.min_samples_leaf)
        trees.append(tree)
        if rng is not None:
            fitted = np.array([recursive_walk(tree, row) for row in x])
        else:
            fitted = tree.fitted_values
        current += params.learning_rate * fitted
        trace.append(float(np.mean((y - current) ** 2)))
    totals = np.zeros(x.shape[1])
    for tree in trees:
        inner = tree.feature >= 0
        np.add.at(totals, tree.feature[inner], tree.gain[inner])
    s = totals.sum()
    return trees, trace, totals / s if s > 0 else totals


@st.composite
def ranked_columns(draw):
    """An x whose columns often share a rank class, and full-precision targets.

    Each column is drawn fresh (grid or float values), copied, held constant,
    mapped through a strictly increasing function, or given an earlier
    column's stable order with other ties (adjacent rows in that order merge
    into one value only where their row ids ascend, so the order survives).
    """
    n = draw(st.integers(2, 30))
    d = draw(st.integers(0, 6))
    cell = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False, width=32))
    columns = []
    for c in range(d):
        kind = draw(st.sampled_from(["fresh", "copy", "constant", "monotone", "retie"] if c else
                                    ["fresh", "constant"]))
        if kind == "fresh":
            col = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64)
        elif kind == "constant":
            col = np.full(n, draw(cell))
        else:
            source = columns[draw(st.integers(0, c - 1))]
            if kind == "copy":
                col = source.copy()
            elif kind == "monotone":
                col = np.arctan(source) * 2.0 + 1.0
            else:
                order = np.argsort(source, kind="stable")
                merge = np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)), dtype=bool)
                merge &= order[:-1] < order[1:]
                col = np.empty(n)
                col[order] = np.concatenate([[0.0], np.cumsum(~merge)])
        columns.append(col)
    x = np.column_stack(columns) if columns else np.empty((n, 0))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, 2))
    y *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    params = GBDTParams(
        num_trees=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 5)),
        subsample=draw(st.sampled_from([1.0, 1.0, 0.5, 0.8])),
        seed=draw(st.integers(0, 2**16)),
    )
    return x, y, params


def assert_same_ensemble(model, trees, trace, importance):
    """Every tree array, depth, the MSE trace and the importances, bit for bit."""
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for name in ("feature", "threshold", "left", "right", "value", "gain"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.depth == want.depth
    assert np.array(model.train_mse_trace).tobytes() == np.array(trace).tobytes()
    assert model.feature_importance().tobytes() == importance.tobytes()


# A constant column 0 still gives every node's SSE through its order (the rows'
# own); column 1 sums the targets in another order, so the last bits differ.
CONSTANT_FIRST_COLUMN = (
    np.column_stack([np.ones(9), [3.0, -1.0, 2.0, 0.5, -2.0, 1.5, 4.0, -0.5, 2.5]]),
    np.random.default_rng(5).normal(size=(9, 2)),
    GBDTParams(num_trees=3, learning_rate=0.3, max_depth=2, seed=0),
)


class TestExactFit:
    """Sorting once, rank classes and the node cache leave every fitted bit as a presort per tree."""

    @settings(max_examples=150, deadline=None)
    @given(ranked_columns())
    @example(CONSTANT_FIRST_COLUMN)
    def test_fit_gbdt_equals_a_presort_per_tree(self, problem):
        x, y, params = problem
        assert_same_ensemble(fit_gbdt(x, y[:, 0], params), *reference_gbdt(x, y[:, 0], params))

    @settings(max_examples=60, deadline=None)
    @given(ranked_columns())
    def test_multi_output_equals_a_presort_per_tree(self, problem):
        x, y, params = problem
        multi = fit_multi_output_gbdt(x, y, params)
        importances = []
        for j, model in enumerate(multi.ensembles):
            want = reference_gbdt(x, y[:, j], replace(params, seed=params.seed + j))
            assert_same_ensemble(model, *want)
            importances.append(want[2])
        assert multi.feature_importance().tobytes() == np.mean(importances, axis=0).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(ranked_columns(), st.sampled_from([0, 2048]))
    def test_a_full_node_cache_starts_over_without_changing_a_bit(self, problem, budget):
        x, y, params = problem
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbdt, "NODE_CACHE_BYTES", budget)
            model = fit_gbdt(x, y[:, 0], params)
        assert_same_ensemble(model, *reference_gbdt(x, y[:, 0], params))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, bad):
        x = np.arange(8.0).reshape(4, 2)
        x[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_gbdt(x, np.arange(4.0), GBDTParams(num_trees=2))


def sum_tree_by_tree(ensemble, x):
    """Reference prediction: the init value, then ``lr * tree.predict(x)`` added one tree at a time."""
    out = np.full(x.shape[0], ensemble.init_value)
    for tree in ensemble.trees:
        out += ensemble.params.learning_rate * tree.predict(x)
    return out


class TestAllTreesPrediction:
    """Walking every tree together and summing along the tree axis changes no bit."""

    @settings(max_examples=80, deadline=None)
    @given(ranked_columns(), st.integers(0, 5), st.integers(1, 4), st.sampled_from([1, 5, 2**18]),
           st.integers(0, 2**32 - 1))
    def test_ensembles_equal_a_sum_tree_by_tree(self, problem, num_trees, other_depth, walk_entries, seed):
        x, y, params = problem
        params = replace(params, num_trees=num_trees)  # zero trees included
        multi = fit_multi_output_gbdt(x, y, params)
        other = fit_gbdt(x, y[:, 1], replace(params, max_depth=other_depth, num_trees=3))
        first = multi.ensembles[0]
        mixed = BoostedEnsemble(params, first.init_value, other.trees + first.trees, x.shape[1])
        probe = np.vstack([x, np.random.default_rng(seed).uniform(-12, 12, size=(7, x.shape[1]))])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbdt, "WALK_ENTRIES", walk_entries)  # blocks of one row, a few rows or every row
            for model in (*multi.ensembles, other, mixed):
                assert model.predict(probe).tobytes() == sum_tree_by_tree(model, probe).tobytes()
            want = np.column_stack([sum_tree_by_tree(e, probe) for e in multi.ensembles])
            assert multi.predict(probe).tobytes() == want.tobytes()

    def test_fewer_columns_than_the_fit_rejected(self):
        x = np.arange(12.0).reshape(6, 2)
        model = fit_gbdt(x, np.arange(6.0), GBDTParams(num_trees=2))
        with pytest.raises(ValueError, match="x has 1 columns; the model was fitted on 2"):
            model.predict(x[:, :1])


class TestParams:
    @pytest.mark.parametrize("bad", [
        {"num_trees": -1},
        {"learning_rate": 0.0},
        {"max_depth": 0},
        {"min_samples_leaf": 0},
        {"subsample": 0.0},
        {"subsample": 1.5},
    ])
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(ValueError):
            GBDTParams(**bad).validate()

    def test_from_dict_builds_validated_params(self):
        params = GBDTParams.from_dict({"num_trees": 5, "max_depth": 2})
        assert params.num_trees == 5
        assert params.learning_rate == 0.1


class TestPredictors:
    def fitted(self):
        pm = small_pm()
        enc = EncodedAlgoFeatures(["x", "y"], ["a0"], np.array([[0.0], [1.0]]))
        user_x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        params = GBDTParams(num_trees=8, learning_rate=0.5, max_depth=2, seed=0)
        multi = fit_multi_output_gbdt(*build_wide(user_x, pm.values), params)
        single = fit_gbdt(*build_long(user_x, pm.values, enc.aligned(pm.algorithms)), params)
        return pm, enc, user_x, multi, single

    def test_user_only_scores_equal_direct_prediction(self):
        pm, enc, user_x, multi, _ = self.fitted()
        scores = predict_scores_user_only(multi, user_x)
        assert scores.shape == (3, 2)
        for i in range(3):
            np.testing.assert_array_equal(scores[i], multi.predict(user_x[i][None, :])[0])

    def test_user_algo_scores_stack_pair_rows(self):
        pm, enc, user_x, _, single = self.fitted()
        scores = predict_scores_user_algo(single, user_x, enc, pm.algorithms)
        assert scores.shape == (3, 2)
        for i in range(3):
            for j, algo in enumerate(pm.algorithms):
                row = np.hstack([user_x[i], enc.row(algo)])[None, :]
                assert scores[i, j] == single.predict(row)[0]
