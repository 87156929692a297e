"""NDCG@k, the performance matrix, SBA/VBA, gap arithmetic, selectors."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from recselect import ground_truth
from recselect.data import temporal_split_per_user
from recselect.errors import EmptyDatasetError, NonFiniteScoresError, SchemaError
from recselect.experiment import selector_fold_metrics
from recselect.ground_truth import (
    PerformanceMatrix,
    evaluate_portfolio,
    gap_closed,
    ndcg_at_k,
    single_best_algorithm,
    virtual_best_algorithm,
)
from recselect.recommenders import (
    PortfolioConfig,
    build_train_matrix,
    recommend_top_k,
    train_algorithm,
    train_portfolio,
)
from recselect.recommenders import implicitmf
from recselect.recommenders.ease import EaseModel
from recselect.synth import planted_two_population

from conftest import SMALL_PARAMS, dense_b, lu_solve_side, make_dataset, random_dataset


def brute_force_ndcg(ranking, relevant, k):
    """Position-by-position DCG over IDCG, written as plainly as possible."""
    dcg = 0.0
    for pos in range(min(k, len(ranking))):
        if ranking[pos] in relevant:
            dcg += 1.0 / math.log2(pos + 2)
    idcg = 0.0
    for pos in range(min(k, len(relevant))):
        idcg += 1.0 / math.log2(pos + 2)
    return dcg / idcg


class TestNdcg:
    def test_single_relevant_item_at_rank_one(self):
        assert ndcg_at_k(["a"], {"a"}, k=10) == 1.0

    def test_all_misses_score_zero(self):
        assert ndcg_at_k(["x", "y", "z"], {"a"}, k=10) == 0.0

    def test_hit_at_rank_two_discounts_by_log(self):
        got = ndcg_at_k(["x", "a"], {"a"}, k=10)
        assert math.isclose(got, 1.0 / math.log2(3), rel_tol=0, abs_tol=1e-15)
        assert math.isclose(got, 0.6309297535714575, abs_tol=1e-15)

    def test_two_relevant_one_miss_between(self):
        got = ndcg_at_k(["a", "x", "b"], {"a", "b"}, k=10)
        assert math.isclose(got, 0.9197207891481876, abs_tol=1e-15)

    def test_ideal_dcg_truncates_at_k(self):
        # two relevant items but only one slot: a perfect first pick is 1.0
        assert ndcg_at_k(["a"], {"a", "b"}, k=1) == 1.0

    def test_ranking_longer_than_k_ignores_the_tail(self):
        with_tail = ndcg_at_k(["x", "a"] + ["y"] * 20, {"a"}, k=2)
        assert with_tail == ndcg_at_k(["x", "a"], {"a"}, k=2)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], set(), k=10)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a"}, k=0)

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(42)
        items = [f"i{j}" for j in range(20)]
        for _ in range(300):
            k = int(rng.integers(1, 12))
            ranking = list(rng.permutation(items)[: int(rng.integers(1, 20))])
            relevant = set(rng.choice(items, size=int(rng.integers(1, 8)), replace=False))
            got = ndcg_at_k(ranking, relevant, k=k)
            want = brute_force_ndcg(ranking, relevant, k)
            assert math.isclose(got, want, abs_tol=1e-12)
            assert 0.0 <= got <= 1.0

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=9))
    @settings(max_examples=50, deadline=None)
    def test_promoting_a_relevant_item_never_hurts(self, k, pos):
        ranking = [f"i{j}" for j in range(10)]
        relevant = {ranking[pos]}
        base = ndcg_at_k(ranking, relevant, k=k)
        promoted = list(ranking)
        promoted.insert(0, promoted.pop(pos))
        assert ndcg_at_k(promoted, relevant, k=k) >= base


class TestPerformanceMatrix:
    def fixture_matrix(self):
        return PerformanceMatrix(
            users=["u1", "u2"],
            algorithms=["a", "b"],
            values=np.array([[0.9, 0.1], [0.2, 0.8]]),
        )

    def test_lookup_row_and_column_means(self):
        pm = self.fixture_matrix()
        assert pm.lookup("u2", "b") == 0.8
        np.testing.assert_array_equal(pm.row("u1"), [0.9, 0.1])
        np.testing.assert_allclose(pm.column_means(), [0.55, 0.45])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PerformanceMatrix(["u1"], ["a", "b"], np.zeros((2, 2)))

    def test_csv_round_trip_is_close_to_ten_decimals(self, tmp_path):
        rng = np.random.default_rng(0)
        pm = PerformanceMatrix(
            users=[f"u{j}" for j in range(6)],
            algorithms=["a", "b", "c"],
            values=rng.random((6, 3)),
        )
        path = tmp_path / "pm.csv"
        pm.to_csv(path)
        back = PerformanceMatrix.from_csv(path)
        assert back.users == pm.users and back.algorithms == pm.algorithms
        np.testing.assert_allclose(back.values, pm.values, atol=5e-11)

    def test_from_csv_requires_user_header(self, tmp_path):
        path = tmp_path / "pm.csv"
        path.write_text("name,a\nu1,0.5\n")
        with pytest.raises(SchemaError, match="pm.csv: expected 'user' as the first header column, found 'name'"):
            PerformanceMatrix.from_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("u1,0.5,nan\nu2,0.1,0.2\n", "non-finite"),
        ("u1,0.5,inf\n", "non-finite"),
        ("u1,0.5,0.1\nu1,0.2,0.3\n", "repeats user"),
        ("u1,0.5,0.1\nu2,0.2\n", "fields"),
        ("u1,0.5,0.1,0.9\n", "fields"),
        ("u1,0.5,high\n", "could not convert"),
        ("", "pm.csv: no user rows after the header"),
    ])
    def test_from_csv_rejects_malformed_rows(self, tmp_path, body, message):
        path = tmp_path / "pm.csv"
        path.write_text("user,a,b\n" + body)
        with pytest.raises(SchemaError, match=message):
            PerformanceMatrix.from_csv(path)


class TestBaselines:
    def test_sba_is_best_column_mean(self):
        pm = PerformanceMatrix(["u1", "u2"], ["a", "b"],
                               np.array([[0.9, 0.1], [0.2, 0.8]]))
        algo, mean = single_best_algorithm(pm)
        assert algo == "a"
        assert math.isclose(mean, 0.55)

    def test_sba_tie_goes_to_earlier_column(self):
        pm = PerformanceMatrix(["u1"], ["a", "b"], np.array([[0.5, 0.5]]))
        assert single_best_algorithm(pm)[0] == "a"

    def test_vba_is_mean_of_row_maxima(self):
        pm = PerformanceMatrix(["u1", "u2"], ["a", "b"],
                               np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert math.isclose(virtual_best_algorithm(pm), 0.85)

    def test_vba_never_below_sba_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            values = rng.random((int(rng.integers(2, 12)), int(rng.integers(2, 6))))
            pm = PerformanceMatrix(
                [f"u{j}" for j in range(values.shape[0])],
                [f"a{j}" for j in range(values.shape[1])],
                values,
            )
            _, sba = single_best_algorithm(pm)
            vba = virtual_best_algorithm(pm)
            assert math.isclose(sba, max(values.mean(axis=0)))
            assert math.isclose(vba, values.max(axis=1).mean())
            assert vba >= sba - 1e-15

    def test_gap_closed_fixture(self):
        assert math.isclose(gap_closed(0.143, 0.128, 0.280), 9.868421052631579)

    def test_gap_closed_endpoints(self):
        assert gap_closed(0.128, 0.128, 0.280) == 0.0
        assert gap_closed(0.280, 0.128, 0.280) == 100.0

    def test_gap_undefined_when_vba_not_above_sba(self):
        with pytest.raises(ValueError):
            gap_closed(0.5, 0.4, 0.4)


class TestApplySelector:
    """The oracle and constant selectors through ``selector_fold_metrics``."""

    def make_pm(self):
        return PerformanceMatrix(["u1", "u2"], ["a", "b"],
                                 np.array([[0.9, 0.1], [0.2, 0.8]]))

    def test_oracle_choices_reach_vba(self):
        pm = self.make_pm()
        ndcg, top1, _ = selector_fold_metrics(pm.values, pm.values)
        assert math.isclose(ndcg, virtual_best_algorithm(pm))
        assert top1 == 100.0

    def test_constant_choice_reaches_the_column_mean(self):
        pm = self.make_pm()
        ndcg, top1, _ = selector_fold_metrics(pm.values, np.tile([1.0, 0.0], (2, 1)))
        assert math.isclose(ndcg, 0.55)
        assert top1 == 50.0


class TestEvaluatePortfolio:
    def test_matches_per_user_recomposition(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, n_users=10, n_items=12, min_per_user=4, max_per_user=9)
        split = temporal_split_per_user(ds, 0.25)
        config = PortfolioConfig({"pop": {}, "itemknn": {"neighbors": 5},
                                  "ease": {"l2": 2.0}})
        models = train_portfolio(split.train, config)
        matrix = build_train_matrix(split.train)
        pm = evaluate_portfolio(matrix, split.test, models, k=5)

        relevant = {}
        for it in split.test.interactions:
            relevant.setdefault(it.user, set()).add(it.item)
        for user in pm.users:
            for algo, model in models.items():
                rec = recommend_top_k(model, user, k=5, exclude_seen=True)
                want = ndcg_at_k(rec.items, relevant[user], k=5)
                assert pm.lookup(user, algo) == want

    def test_user_blocks_do_not_change_the_matrix(self, monkeypatch):
        """One-user blocks, the cache-sized default and the former 256-user blocks give the same
        matrix for the whole portfolio."""
        split = temporal_split_per_user(planted_two_population(seed=17, users_per_group=150), 0.2)
        matrix = build_train_matrix(split.train)
        models = train_portfolio(matrix, PortfolioConfig(dict(SMALL_PARAMS)))
        default_rows = ground_truth._BLOCK_VALUES // matrix.n_items
        assert 1 < default_rows < 256 < len(split.test.user_ids)  # three different blockings
        whole = evaluate_portfolio(matrix, split.test, models, k=10)
        for rows in (1, 256):
            monkeypatch.setattr(ground_truth, "_BLOCK_VALUES", rows * matrix.n_items)
            blocked = evaluate_portfolio(matrix, split.test, models, k=10)
            assert blocked.users == whole.users and blocked.algorithms == list(SMALL_PARAMS)
            np.testing.assert_array_equal(blocked.values, whole.values)

    def test_short_lists_and_relevant_training_items(self):
        """A user with fewer than k candidates gets a list padded with -1, which must not read the
        relevance of the last item; a relevant item the user holds in training is never ranked but
        still counts in the ideal DCG."""
        ds = make_dataset([("a", "i0", 1.0, 0), ("a", "i1", 1.0, 1), ("a", "i2", 1.0, 2),
                           ("b", "i0", 1.0, 3), ("b", "i1", 1.0, 4), ("c", "i3", 1.0, 5),
                           ("a", "i4", 1.0, 6), ("b", "i4", 1.0, 7)])
        matrix = build_train_matrix(ds)
        assert matrix.item_ids[-1] == "i4"  # the item that -1 indexes
        models = train_portfolio(matrix, PortfolioConfig({"pop": {}}))
        relevant = [{"i4"}, {"i3", "i4"}, {"i0", "i3", "gone"}]
        test = ground_truth.EvaluableUsers(["a", "b", "c"], relevant, skipped=0)
        pm = evaluate_portfolio(matrix, test, models, k=10)
        for user, rel in zip(test.users, relevant):
            want = ndcg_at_k(recommend_top_k(models["pop"], user, k=10).items, rel, k=10)
            assert pm.lookup(user, "pop") == want, user
        assert pm.lookup("a", "pop") == 0.0  # its one candidate, i3, is not relevant
        second = 1.0 / math.log2(3)
        assert pm.lookup("b", "pop") == second / (1.0 + second)  # i3 after i2, its tie; i4 is held
        ideal_c = 1.0 + 1.0 / math.log2(3) + 1.0 / math.log2(4)  # three relevant: i3 is held, "gone" is unknown
        assert pm.lookup("c", "pop") == 1.0 / ideal_c  # i0, the most popular candidate, first

    def test_non_finite_scores_name_the_algorithm_and_first_user(self, toy_split, toy_matrix, monkeypatch):
        models = train_portfolio(toy_split.train, PortfolioConfig({"pop": {}}))
        scores = np.tile(models["pop"].item_scores, (toy_matrix.n_users, 1))
        scores[1:, 2] = np.inf
        monkeypatch.setattr(models["pop"], "score_users", lambda idx: scores[idx])
        first_bad = next(u for u in toy_split.test.user_ids if toy_matrix.user_index[u] >= 1)
        with pytest.raises(NonFiniteScoresError, match=f"pop produced non-finite scores for user {first_bad!r}"):
            evaluate_portfolio(toy_matrix, toy_split.test, models, k=3)

    def test_ease_column_is_the_same_for_a_dense_inverse_reference(self):
        """Block/Cholesky B and a dense ``np.linalg.inv`` B rank every user alike."""
        split = temporal_split_per_user(planted_two_population(seed=17, users_per_group=100), 0.2)
        matrix = build_train_matrix(split.train)
        shipped = train_algorithm("ease", matrix, {"l2": 10.0})
        x = shipped.x.toarray()
        p = np.linalg.inv(x.T @ x + 10.0 * np.eye(matrix.n_items))
        b = -p / np.diag(p)[None, :]
        np.fill_diagonal(b, 0.0)
        assert not np.array_equal(b, dense_b(shipped))  # two numeric routes, not one
        np.testing.assert_allclose(dense_b(shipped), b, atol=1e-9)
        reference = EaseModel(matrix, shipped.config, shipped.x, sp.csr_matrix(b))
        got = evaluate_portfolio(matrix, split.test, {"ease": shipped}, k=10)
        want = evaluate_portfolio(matrix, split.test, {"ease": reference}, k=10)
        np.testing.assert_array_equal(got.values, want.values)

    def test_implicitmf_column_is_the_same_for_the_lu_solve_reference(self, monkeypatch):
        """Substitution on the Cholesky factor and the reference pivoted-LU solves rank every user alike."""
        split = temporal_split_per_user(planted_two_population(seed=17, users_per_group=100), 0.2)
        matrix = build_train_matrix(split.train)
        params = {"factors": 16, "iterations": 8}
        shipped = train_algorithm("implicitmf", matrix, params)
        monkeypatch.setattr(implicitmf, "solve_side", lu_solve_side)
        reference = train_algorithm("implicitmf", matrix, params)
        assert not np.array_equal(shipped.p, reference.p)  # two numeric routes, not one
        got = evaluate_portfolio(matrix, split.test, {"implicitmf": shipped}, k=10)
        want = evaluate_portfolio(matrix, split.test, {"implicitmf": reference}, k=10)
        np.testing.assert_array_equal(got.values, want.values)

    def test_matrix_is_pinned_against_last_bit_score_noise(self):
        """Scores a few ulps off, as another BLAS build may sum them, give the same matrix bit for bit."""
        split = temporal_split_per_user(planted_two_population(seed=17, users_per_group=50), 0.2)
        matrix = build_train_matrix(split.train)
        models = train_portfolio(matrix, PortfolioConfig(dict(SMALL_PARAMS)))
        clean = evaluate_portfolio(matrix, split.test, models, k=10)
        rng = np.random.default_rng(7)

        def nudged(score_users):
            def score(idx):
                scores = np.array(score_users(idx), dtype=np.float64)
                moved = rng.random(scores.shape) < 0.3
                ulps = rng.integers(1, 5, size=scores.shape)
                toward = np.where(rng.random(scores.shape) < 0.5, -np.inf, np.inf)
                for step in range(1, 5):
                    cells = moved & (ulps >= step)
                    scores[cells] = np.nextafter(scores[cells], toward[cells])
                return scores
            return score

        for model in models.values():
            original = model.score_users
            model.score_users = nudged(original)
            assert not np.array_equal(model.score_users(np.arange(5)), original(np.arange(5)))
        noisy = evaluate_portfolio(matrix, split.test, models, k=10)
        assert noisy.users == clean.users and noisy.algorithms == list(SMALL_PARAMS)
        np.testing.assert_array_equal(noisy.values, clean.values)

    def test_unknown_test_users_are_skipped_and_counted(self, toy_split, toy_matrix):
        models = train_portfolio(toy_split.train, PortfolioConfig({"pop": {}}))
        extra = make_dataset([("ghost", "i1", 1.0, 99)])
        test = make_dataset(
            [(it.user, it.item, it.rating, it.timestamp) for it in toy_split.test.interactions]
            + [(it.user, it.item, it.rating, it.timestamp) for it in extra.interactions]
        )
        pm = evaluate_portfolio(toy_matrix, test, models, k=3)
        assert pm.skipped_users == 1
        assert "ghost" not in pm.users

    def test_no_evaluable_users_raises(self, toy_split, toy_matrix):
        models = train_portfolio(toy_split.train, PortfolioConfig({"pop": {}}))
        test = make_dataset([("ghost", "i1", 1.0, 99), ("ghost", "i2", 1.0, 100)])
        with pytest.raises(EmptyDatasetError):
            evaluate_portfolio(toy_matrix, test, models, k=3)

    def test_empty_models_rejected(self, toy_split, toy_matrix):
        with pytest.raises(ValueError):
            evaluate_portfolio(toy_matrix, toy_split.test, {}, k=3)

    def test_training_items_are_never_recommended(self):
        # Popularity ranks a > b > c, so each user's one slot holds its only unseen item.
        ds = make_dataset([
            ("u0", "a", 1, 0), ("u0", "b", 1, 1), ("u0", "c", 1, 2),
            ("u1", "a", 1, 0), ("u1", "b", 1, 1), ("u1", "c", 1, 2),
            ("u2", "a", 1, 0), ("u2", "c", 1, 1), ("u2", "b", 1, 2),
        ])
        split = temporal_split_per_user(ds, 0.2)
        models = train_portfolio(split.train, PortfolioConfig({"pop": {}}))
        pm = evaluate_portfolio(build_train_matrix(split.train), split.test, models, k=1)
        np.testing.assert_array_equal(pm.values, np.ones((3, 1)))
