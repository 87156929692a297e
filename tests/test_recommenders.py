"""Training-matrix plumbing, ranking rules, and the seven algorithms.

The matrix-factorization checks verify gradients against central finite
differences and objectives against direct recomputation; EASE is checked
against the stationarity conditions of its constrained least-squares problem
rather than against its own closed form.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recselect.data import temporal_split_per_user
from recselect.errors import (
    ColdStartError,
    DivergenceError,
    EmptyDatasetError,
    MatrixInversionError,
    NonFiniteScoresError,
)
from recselect.recommenders import (
    AVAILABLE_ALGORITHMS,
    PortfolioConfig,
    RecommenderModel,
    UNAVAILABLE,
    algorithm_source_path,
    build_train_matrix,
    load_model,
    recommend_top_k,
    save_model,
    top_k,
    train_algorithm,
    train_portfolio,
)
from recselect.recommenders import biasedmf, bpr, ease, implicitmf, itemknn, pop, userknn
from recselect.recommenders.base import stored_values, wavefronts
from recselect.synth import planted_two_population

from conftest import SMALL_PARAMS, dense_b, make_dataset, per_entry_normal_equations, random_dataset


class _StubModel(RecommenderModel):
    """Fixed score table; isolates the shared ranking code."""

    algorithm_id = "stub"

    def __init__(self, matrix, scores):
        super().__init__(matrix, {})
        self.scores = scores

    def score_users(self, idx):
        return self.scores[idx]


def small_matrix():
    ds = make_dataset([
        ("u1", "A", 1.0, 0), ("u1", "B", 1.0, 1),
        ("u2", "A", 1.0, 2), ("u2", "B", 1.0, 3),
        ("u3", "A", 1.0, 4), ("u3", "C", 1.0, 5),
    ])
    return build_train_matrix(ds)


class TestTrainMatrix:
    def test_shape_counts_and_seen_sets(self):
        m = small_matrix()
        assert (m.n_users, m.n_items) == (3, 3)
        np.testing.assert_array_equal(m.item_counts, [3, 2, 1])
        np.testing.assert_array_equal(m.seen[2], [0, 2])

    def test_duplicate_pairs_sum_in_the_sparse_matrix(self):
        ds = make_dataset([("u", "x", 2.0, 0), ("u", "x", 3.0, 1), ("u", "y", 1.0, 2)])
        m = build_train_matrix(ds)
        assert m.matrix[0, 0] == 5.0
        np.testing.assert_array_equal(m.seen[0], [0, 1])

    def test_seen_sets_are_each_users_sorted_distinct_items(self):
        """Duplicate pairs, unsorted input, a zero rating and a one-item user."""
        ds = make_dataset([("u", "z", 1.0, 0), ("v", "y", 0.0, 1), ("u", "x", 2.0, 2), ("w", "z", 4.0, 3),
                           ("u", "z", 3.0, 4), ("v", "x", 1.0, 5), ("u", "y", 5.0, 6)])
        m = build_train_matrix(ds)
        for user in m.user_ids:
            want = np.unique([m.item_index[it.item] for it in ds.interactions if it.user == user])
            assert m.seen[m.user_index[user]].dtype == np.int64
            np.testing.assert_array_equal(m.seen[m.user_index[user]], want)
        assert m.seen[m.user_index["w"]].size == 1
        assert m.item_index["y"] in m.seen[m.user_index["v"]]  # a zero rating is still an interaction

    def test_binarized_keeps_pattern_only(self):
        ds = make_dataset([("u", "x", 4.0, 0), ("v", "y", 2.0, 1)])
        m = build_train_matrix(ds)
        assert set(m.binarized().data.tolist()) == {1.0}

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_train_matrix(make_dataset([]))


class TestRecommendTopK:
    def test_matches_sorted_oracle_with_exclusion(self):
        rng = np.random.default_rng(42)
        m = small_matrix()
        for _ in range(50):
            scores = rng.normal(size=(m.n_users, m.n_items))
            model = _StubModel(m, scores)
            for user in m.user_ids:
                u = m.user_index[user]
                seen = set(m.seen[u].tolist())
                want = sorted(
                    (j for j in range(m.n_items) if j not in seen),
                    key=lambda j: (-scores[u, j], j),
                )[:2]
                rec = recommend_top_k(model, user, k=2)
                assert list(rec.items) == [m.item_ids[j] for j in want]

    def test_score_ties_resolve_to_lower_item_index(self):
        m = small_matrix()
        model = _StubModel(m, np.zeros((3, 3)))
        rec = recommend_top_k(model, "u3", k=3, exclude_seen=False)
        assert list(rec.items) == ["A", "B", "C"]

    def test_include_seen_flag(self):
        m = small_matrix()
        model = _StubModel(m, np.tile(np.array([3.0, 2.0, 1.0]), (3, 1)))
        rec = recommend_top_k(model, "u1", k=3, exclude_seen=False)
        assert list(rec.items) == ["A", "B", "C"]

    def test_short_candidate_pool_returns_fewer_items(self):
        m = small_matrix()
        model = _StubModel(m, np.ones((3, 3)))
        rec = recommend_top_k(model, "u1", k=10)  # u1 saw A and B
        assert list(rec.items) == ["C"]

    def test_unknown_user_is_cold_start(self):
        m = small_matrix()
        model = _StubModel(m, np.ones((3, 3)))
        with pytest.raises(ColdStartError):
            recommend_top_k(model, "stranger", k=1)

    def test_non_finite_scores_rejected(self):
        m = small_matrix()
        scores = np.ones((3, 3))
        scores[0, 0] = np.nan
        model = _StubModel(m, scores)
        with pytest.raises(NonFiniteScoresError, match="stub produced non-finite scores for user 'u1'"):
            recommend_top_k(model, "u1", k=1, exclude_seen=False)

    def test_scores_are_non_increasing(self):
        rng = np.random.default_rng(0)
        m = small_matrix()
        model = _StubModel(m, rng.normal(size=(3, 3)))
        rec = recommend_top_k(model, "u2", k=3, exclude_seen=False)
        assert list(rec.scores) == sorted(rec.scores, reverse=True)


@st.composite
def integer_score_rows(draw):
    """Rows of small integers times one positive scale: ties exact, distinct values far apart."""
    rows = draw(st.integers(1, 4))
    items = draw(st.integers(1, 25))
    ints = draw(st.lists(st.integers(-8, 8), min_size=rows * items, max_size=rows * items))
    scale = draw(st.floats(1e-6, 1e6))
    exclude = draw(st.lists(st.booleans(), min_size=rows * items, max_size=rows * items))
    k = draw(st.integers(1, items + 2))
    shape = (rows, items)
    return np.asarray(ints, dtype=np.float64).reshape(shape) * scale, np.asarray(exclude).reshape(shape), k


def lexsort_top_k(scores, k, exclude):
    """Reference: full stable sort by (-score, item index), excluded items dropped."""
    out = []
    for row, mask in zip(scores, exclude):
        order = [j for j in np.lexsort((np.arange(row.size), -row)) if not mask[j]]
        out.append(order[:k])
    return out


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(integer_score_rows())
    def test_well_separated_scores_follow_the_lexsort_reference(self, case):
        scores, exclude, k = case
        got = top_k(scores, k, exclude)
        assert got.shape == (scores.shape[0], min(k, scores.shape[1]))
        for row, want in zip(got, lexsort_top_k(scores, k, exclude)):
            assert [j for j in row if j >= 0] == want
            assert all(j == -1 for j in row[len(want):])

    @settings(max_examples=200, deadline=None)
    @given(integer_score_rows(), st.data())
    def test_ties_survive_a_few_ulps_of_noise(self, case, data):
        scores, exclude, k = case
        steps = np.asarray(data.draw(st.lists(st.integers(-4, 4), min_size=scores.size, max_size=scores.size)))
        noisy = scores.ravel().copy()
        for _ in range(4):  # move each score |step| ulps in the sign's direction
            moving = steps != 0
            noisy[moving] = np.nextafter(noisy[moving], np.sign(steps[moving]) * np.inf)
            steps = steps - np.sign(steps)
        noisy = noisy.reshape(scores.shape)
        np.testing.assert_array_equal(top_k(noisy, k, exclude), top_k(scores, k, exclude))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_excluded_items_never_appear(self, items, k, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(3, items))
        exclude = rng.random((3, items)) < 0.5
        got = top_k(scores, k, exclude)
        for row, mask in zip(got, exclude):
            listed = row[row >= 0]
            assert not mask[listed].any()
            assert listed.size == min(k, int((~mask).sum()))
            assert len(set(listed.tolist())) == listed.size

    def test_near_equal_scores_tie_to_the_lower_index(self):
        scores = np.array([[0.3, 0.1 + 0.2, 0.2]])  # 0.30000000000000004 at index 1
        np.testing.assert_array_equal(top_k(scores, 2), [[0, 1]])
        np.testing.assert_array_equal(top_k(scores[:, ::-1], 2), [[1, 2]])

    def test_subnormal_noise_around_zero_keeps_the_tie(self):
        tiny = np.nextafter(0.0, 1.0)  # one ulp above zero
        for row in ([0.0, tiny], [-tiny, 0.0, 4 * tiny]):
            np.testing.assert_array_equal(top_k(np.array([row]), len(row)), [np.arange(len(row))])


class TestPopularity:
    def test_scores_are_item_counts(self):
        m = small_matrix()
        model = pop.train_pop(m)
        np.testing.assert_array_equal(model.score_users(np.array([0, 2])), [[3.0, 2.0, 1.0]] * 2)

    def test_ranking_follows_counts_then_index(self):
        m = small_matrix()
        model = pop.train_pop(m)
        rec = recommend_top_k(model, "u3", k=3, exclude_seen=False)
        assert list(rec.items) == ["A", "B", "C"]


class TestItemKnn:
    def test_cosine_matches_dense_oracle(self):
        m = small_matrix()
        x = m.binarized()
        sims = itemknn.cosine_similarity_columns(x).toarray()
        dense = x.toarray()
        norms = np.linalg.norm(dense, axis=0)
        want = (dense.T @ dense) / np.outer(norms, norms)
        np.fill_diagonal(want, 0.0)
        np.testing.assert_allclose(sims, want, atol=1e-12)

    def test_zero_norm_column_gives_zero_similarity(self):
        x = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        sims = itemknn.cosine_similarity_columns(x).toarray()
        np.testing.assert_array_equal(sims, np.zeros((2, 2)))

    def test_truncation_keeps_top_neighbors_per_column(self):
        m = small_matrix()
        sims = itemknn.cosine_similarity_columns(m.binarized())
        kept = itemknn.truncate_columns(sims, neighbors=1).toarray()
        # column A keeps only B: cos(A,B)=2/sqrt(6) beats cos(A,C)=1/sqrt(3)
        assert kept[1, 0] == pytest.approx(2 / np.sqrt(6))
        assert kept[2, 0] == 0.0
        assert (kept != 0).sum(axis=0).max() <= 1

    @pytest.mark.parametrize("block", [2, 256])
    def test_truncation_equals_a_per_column_lexsort_reference(self, monkeypatch, block):
        rng = np.random.default_rng(3)
        dense = rng.integers(1, 5, size=(12, 9)) * (rng.random((12, 9)) < 0.6) * 0.25
        sims = sp.csc_matrix(dense)
        want = np.zeros_like(dense)
        for j in range(dense.shape[1]):
            rows = np.flatnonzero(dense[:, j])
            top = rows[np.lexsort((rows, -dense[rows, j]))][:3]
            want[top, j] = dense[top, j]
        monkeypatch.setattr(itemknn, "_COLUMN_BLOCK", block)
        kept = itemknn.truncate_columns(sims, neighbors=3)
        np.testing.assert_array_equal(kept.toarray(), want)
        assert kept.has_sorted_indices

    def test_score_is_history_similarity_sum(self):
        m = small_matrix()
        model = itemknn.train_itemknn(m, neighbors=3)
        sims = model.sims.toarray()
        # u3's history is {A, C}; candidate B accumulates both similarities
        want = sims[0, 1] + sims[2, 1]
        assert model.score_users(np.array([2]))[0, 1] == pytest.approx(want)

    def test_neighbor_bound_validated(self):
        with pytest.raises(ValueError):
            itemknn.train_itemknn(small_matrix(), neighbors=0)


class TestUserKnn:
    def test_scores_match_dense_recomputation(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n_users=8, n_items=10, min_per_user=3, max_per_user=6)
        m = build_train_matrix(ds)
        model = userknn.train_userknn(m, neighbors=8, binarize=False)
        sims = model.sims.toarray()
        ratings = m.matrix.toarray()
        np.testing.assert_allclose(model.score_users(np.arange(m.n_users)), sims @ ratings, atol=1e-12)

    def test_neighbor_truncation_limits_row_support(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, n_users=9, n_items=10, min_per_user=3, max_per_user=6)
        m = build_train_matrix(ds)
        model = userknn.train_userknn(m, neighbors=2)
        support = (model.sims.toarray() != 0).sum(axis=1)
        assert support.max() <= 2


class TestBiasedMF:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = 4
            mu = float(rng.normal())
            b_u, b_i = float(rng.normal()), float(rng.normal())
            p_u, q_i = rng.normal(size=k), rng.normal(size=k)
            rating, reg = float(rng.uniform(1, 5)), 0.3
            g_bu, g_bi, g_p, g_q = biasedmf.sample_gradients(mu, b_u, b_i, p_u, q_i, rating, reg)

            eps = 1e-6
            fd_bu = (biasedmf.sample_loss(mu, b_u + eps, b_i, p_u, q_i, rating, reg)
                     - biasedmf.sample_loss(mu, b_u - eps, b_i, p_u, q_i, rating, reg)) / (2 * eps)
            assert np.isclose(g_bu, fd_bu, rtol=1e-4, atol=1e-7)
            fd_bi = (biasedmf.sample_loss(mu, b_u, b_i + eps, p_u, q_i, rating, reg)
                     - biasedmf.sample_loss(mu, b_u, b_i - eps, p_u, q_i, rating, reg)) / (2 * eps)
            assert np.isclose(g_bi, fd_bi, rtol=1e-4, atol=1e-7)
            for axis in range(k):
                step = np.zeros(k)
                step[axis] = eps
                fd_p = (biasedmf.sample_loss(mu, b_u, b_i, p_u + step, q_i, rating, reg)
                        - biasedmf.sample_loss(mu, b_u, b_i, p_u - step, q_i, rating, reg)) / (2 * eps)
                assert np.isclose(g_p[axis], fd_p, rtol=1e-4, atol=1e-7)
                fd_q = (biasedmf.sample_loss(mu, b_u, b_i, p_u, q_i + step, rating, reg)
                        - biasedmf.sample_loss(mu, b_u, b_i, p_u, q_i - step, rating, reg)) / (2 * eps)
                assert np.isclose(g_q[axis], fd_q, rtol=1e-4, atol=1e-7)

    def test_zero_factors_reduces_to_bias_model(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n_users=6, n_items=8, min_per_user=3, max_per_user=6)
        m = build_train_matrix(ds)
        model = biasedmf.train_biasedmf(m, factors=0, epochs=30, lr=0.05, reg=0.0, seed=1)
        want = model.mu + model.b_user[:, None] + model.b_item[None, :]
        np.testing.assert_allclose(model.score_users(np.arange(m.n_users)), want, atol=1e-12)

    def test_objective_decreases_on_a_fittable_matrix(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n_users=8, n_items=8, min_per_user=4, max_per_user=7)
        m = build_train_matrix(ds)
        model = biasedmf.train_biasedmf(m, factors=2, epochs=15, lr=0.02, reg=0.01, seed=0)
        diffs = np.diff(model.epoch_objectives)
        assert np.all(diffs <= 1e-6)

    def test_low_rank_structure_is_recovered(self):
        rng = np.random.default_rng(5)
        users, items = 8, 6
        left = rng.uniform(0.5, 1.5, size=users)
        right = rng.uniform(1.0, 3.0, size=items)
        rows = []
        ts = 0
        for u in range(users):
            for i in range(items):
                rows.append((f"u{u}", f"i{i}", float(left[u] * right[i]), ts))
                ts += 1
        m = build_train_matrix(make_dataset(rows))
        model = biasedmf.train_biasedmf(m, factors=2, epochs=300, lr=0.05, reg=1e-4, seed=2)
        preds = model.score_users(np.arange(users))
        rmse = np.sqrt(np.mean((preds - np.outer(left, right)) ** 2))
        assert rmse < 0.05

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_learning_rate(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, n_users=6, n_items=6, min_per_user=3, max_per_user=5)
        m = build_train_matrix(ds)
        with pytest.raises(DivergenceError, match="lr=1000.0"):
            biasedmf.train_biasedmf(m, factors=4, epochs=50, lr=1000.0, reg=0.0, seed=0)

    def test_parameter_validation(self):
        m = small_matrix()
        with pytest.raises(ValueError):
            biasedmf.train_biasedmf(m, lr=0.0)
        with pytest.raises(ValueError):
            biasedmf.train_biasedmf(m, factors=-1)


@st.composite
def als_half_steps(draw):
    """(factors of the other side, ratings CSR, alpha, reg) for one ALS half-step.

    Rows may be empty or hold one entry, ratings may be explicit zeros, and
    each row's indices are stored unsorted.
    """
    n_rows, n_other = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    k = draw(st.sampled_from([1, 3, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = draw(st.lists(st.integers(0, n_other), min_size=n_rows, max_size=n_rows))
    indices = np.concatenate([rng.permutation(n_other)[:c] for c in counts]).astype(np.int32)
    data = np.array(draw(st.lists(st.sampled_from([0.0, 0.7, 1.0, 2.5, 5.0]), min_size=indices.size,
                                  max_size=indices.size)), dtype=np.float64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    csr = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_other))
    alpha, reg = draw(st.sampled_from([0.0, 0.37, 1.0, 40.0])), draw(st.sampled_from([0.1, 1.0]))
    return rng.normal(size=(n_other, k)), csr, alpha, reg


class TestImplicitMF:
    @settings(max_examples=200, deadline=None)
    @given(als_half_steps())
    def test_normal_equations_equal_the_per_entry_sums_bit_for_bit(self, case):
        factors, csr, alpha, reg = case
        a, b = implicitmf.normal_equations(factors, csr, alpha, reg)
        want_a, want_b = per_entry_normal_equations(factors, csr, alpha, reg)
        np.testing.assert_array_equal(a, want_a)
        np.testing.assert_array_equal(b, want_b)

    def make_matrix(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, n_users=4, n_items=4, min_per_user=2, max_per_user=3)
        return build_train_matrix(ds)

    def test_each_half_step_never_increases_the_objective(self):
        m = self.make_matrix()
        csr = m.matrix.tocsr()
        csr_t = m.matrix.T.tocsr()
        alpha, reg = 10.0, 0.5
        rng = np.random.default_rng(0)
        p = 0.01 * rng.standard_normal((m.n_users, 3))
        q = 0.01 * rng.standard_normal((m.n_items, 3))
        obj = implicitmf.weighted_objective(p, q, csr, alpha, reg)
        for _ in range(3):
            p = implicitmf.solve_side(q, csr, alpha, reg)
            after_p = implicitmf.weighted_objective(p, q, csr, alpha, reg)
            assert after_p <= obj + 1e-9
            q = implicitmf.solve_side(p, csr_t, alpha, reg)
            after_q = implicitmf.weighted_objective(p, q, csr, alpha, reg)
            assert after_q <= after_p + 1e-9
            obj = after_q

    def test_half_step_is_the_exact_minimizer(self):
        m = self.make_matrix()
        csr = m.matrix.tocsr()
        alpha, reg = 5.0, 0.3
        rng = np.random.default_rng(4)
        q = rng.standard_normal((m.n_items, 3))
        p = implicitmf.solve_side(q, csr, alpha, reg)
        base = implicitmf.weighted_objective(p, q, csr, alpha, reg)
        for _ in range(20):
            bumped = p + 1e-3 * rng.standard_normal(p.shape)
            assert implicitmf.weighted_objective(bumped, q, csr, alpha, reg) >= base - 1e-12

    def test_solution_satisfies_the_normal_equations(self):
        m = self.make_matrix()
        csr = m.matrix.tocsr()
        alpha, reg = 8.0, 0.2
        rng = np.random.default_rng(6)
        q = rng.standard_normal((m.n_items, 3))
        p = implicitmf.solve_side(q, csr, alpha, reg)
        for u in range(m.n_users):
            start, end = csr.indptr[u], csr.indptr[u + 1]
            cols = csr.indices[start:end]
            conf = 1.0 + alpha * csr.data[start:end]
            a = q.T @ q + q[cols].T @ ((conf - 1.0)[:, None] * q[cols]) + reg * np.eye(3)
            b = q[cols].T @ conf
            np.testing.assert_allclose(a @ p[u], b, atol=1e-8)

    def test_training_ranks_the_observed_item_first(self):
        ds = make_dataset([("u", "liked", 1.0, 0), ("u", "other", 1.0, 1),
                           ("v", "liked", 1.0, 2), ("v", "third", 1.0, 3)])
        m = build_train_matrix(ds)
        model = implicitmf.train_implicitmf(m, factors=2, iterations=8, reg=0.05, alpha=20.0, seed=0)
        rec = recommend_top_k(model, "u", k=1, exclude_seen=False)
        assert rec.items[0] in ("liked", "other")
        scores = model.score_users(np.array([0]))[0]
        assert scores[m.item_index["liked"]] > scores[m.item_index["third"]]

    def test_nonpositive_reg_rejected(self):
        with pytest.raises(ValueError):
            implicitmf.train_implicitmf(self.make_matrix(), reg=0.0)

    def test_distinct_rows_group_equal_entries_only(self):
        dense = np.array([
            [0, 2, 0],
            [0, 2, 0],  # the same single entry as row 0
            [0, 3, 0],  # another value
            [0, 2, 1],  # an extra entry
            [0, 0, 0],  # no entry
            [2, 0, 0],  # another column
            [0, 0, 0],
            [0, 2, 1],
        ], dtype=np.float64)
        csr = sp.csr_matrix(dense)
        first, group = implicitmf.distinct_rows(csr)
        np.testing.assert_array_equal(first, [0, 2, 3, 4, 5])
        np.testing.assert_array_equal(first[group], [0, 0, 2, 3, 4, 5, 4, 3])
        factors = np.random.default_rng(14).normal(size=(3, 4))
        every = implicitmf.solve_side(factors, csr, 5.0, 0.3)
        np.testing.assert_array_equal(implicitmf.solve_side(factors, csr[first], 5.0, 0.3)[group], every)
        np.testing.assert_array_equal(every[[4, 6]], np.zeros((2, 4)))

    def test_equal_rows_share_one_solve(self, monkeypatch):
        ds = make_dataset([("u", "a", 1.0, 0), ("u", "b", 1.0, 1), ("v", "c", 2.0, 2), ("v", "d", 1.0, 3),
                           ("u", "e", 1.0, 4), ("w", "e", 1.0, 5), ("w", "c", 1.0, 6)])
        m = build_train_matrix(ds)
        solved = []
        solve_side = implicitmf.solve_side

        def spy(factors_other, csr, alpha, reg):
            solved.append(csr.shape[0])
            return solve_side(factors_other, csr, alpha, reg)

        monkeypatch.setattr(implicitmf, "solve_side", spy)
        model = implicitmf.train_implicitmf(m, factors=2, iterations=2)
        assert solved == [3, 4, 3, 4]  # items a and b share a solve; c, d and e each have their own
        np.testing.assert_array_equal(model.q[m.item_index["a"]], model.q[m.item_index["b"]])

    @pytest.mark.parametrize("data", ["planted", "random"])
    def test_grouped_training_equals_solving_every_row(self, data, monkeypatch):
        if data == "planted":
            ds = temporal_split_per_user(planted_two_population(seed=17, users_per_group=50), 0.2).train
        else:
            ds = random_dataset(np.random.default_rng(41), n_users=30, n_items=20)
        m = build_train_matrix(ds)
        if data == "planted":
            assert implicitmf.distinct_rows(m.matrix.T.tocsr())[0].size < m.n_items  # duplicate item rows
        params = {"factors": 4, "iterations": 4, "seed": 3}
        grouped = train_algorithm("implicitmf", m, params)
        monkeypatch.setattr(implicitmf, "distinct_rows", lambda csr: (np.arange(csr.shape[0]),) * 2)
        every = train_algorithm("implicitmf", m, params)
        np.testing.assert_array_equal(grouped.p, every.p)
        np.testing.assert_array_equal(grouped.q, every.q)
        assert grouped.train_ops == every.train_ops == 4 * (2 * m.matrix.nnz * 4**2 + (m.n_users + m.n_items) * 4**3)
        assert stored_values(grouped) == stored_values(every) == (m.n_users + m.n_items) * 4


class TestBPR:
    def test_margin_gradient_matches_finite_differences(self):
        for margin in (-4.0, -0.5, 0.0, 0.7, 3.0):
            eps = 1e-6
            fd = (bpr.pairwise_loss(margin + eps) - bpr.pairwise_loss(margin - eps)) / (2 * eps)
            assert np.isclose(bpr.pairwise_loss_margin_gradient(margin), fd, rtol=1e-5, atol=1e-9)

    def test_sample_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        reg = 0.05

        def loss(p_u, q_i, q_j):
            margin = float(p_u @ (q_i - q_j))
            penalty = float(p_u @ p_u + q_i @ q_i + q_j @ q_j)
            return bpr.pairwise_loss(margin) + 0.5 * reg * penalty

        for _ in range(20):
            p_u, q_i, q_j = rng.normal(size=(3, 4))
            g_p, g_i, g_j = bpr.sample_gradients(p_u, q_i, q_j, reg)
            eps = 1e-6
            for axis in range(4):
                step = np.zeros(4)
                step[axis] = eps
                assert np.isclose(g_p[axis], (loss(p_u + step, q_i, q_j) - loss(p_u - step, q_i, q_j)) / (2 * eps), rtol=1e-4, atol=1e-7)
                assert np.isclose(g_i[axis], (loss(p_u, q_i + step, q_j) - loss(p_u, q_i - step, q_j)) / (2 * eps), rtol=1e-4, atol=1e-7)
                assert np.isclose(g_j[axis], (loss(p_u, q_i, q_j + step) - loss(p_u, q_i, q_j - step)) / (2 * eps), rtol=1e-4, atol=1e-7)

    def test_training_prefers_positives_over_never_seen(self):
        rows = []
        for u in range(6):
            rows.append((f"u{u}", "liked_a", 1.0, 2 * u))
            rows.append((f"u{u}", "liked_b", 1.0, 2 * u + 1))
        rows.append(("walker", "liked_a", 1.0, 100))
        rows.append(("walker", "cold", 1.0, 101))
        m = build_train_matrix(make_dataset(rows))
        model = bpr.train_bpr(m, factors=4, epochs=60, lr=0.08, reg=0.01, seed=0)
        scores = model.score_users(np.array([0]))[0]
        assert scores[m.item_index["liked_b"]] > scores[m.item_index["cold"]]

    def test_zero_epochs_yields_finite_scores(self):
        m = small_matrix()
        model = bpr.train_bpr(m, factors=3, epochs=0, seed=5)
        assert np.isfinite(model.score_users(np.array([0]))).all()

    def test_parameter_validation(self):
        m = small_matrix()
        with pytest.raises(ValueError):
            bpr.train_bpr(m, lr=-0.1)
        with pytest.raises(ValueError):
            bpr.train_bpr(m, factors=0)


def sequential_biasedmf(matrix, factors, epochs, lr, reg, seed):
    """Per-sample SGD over each epoch's shuffle: the order the wavefront trainer must reproduce."""
    coo = sp.coo_matrix(matrix.matrix)
    samples = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    rng = np.random.default_rng(seed)
    mu = float(coo.data.mean())
    b_user, b_item = np.zeros(matrix.n_users), np.zeros(matrix.n_items)
    p = rng.normal(0.0, 0.1, size=(matrix.n_users, factors))
    q = rng.normal(0.0, 0.1, size=(matrix.n_items, factors))
    objectives = []
    for _ in range(epochs):
        for s in rng.permutation(len(samples)):
            u, i, r = samples[s]
            e = r - (mu + b_user[u] + b_item[i] + p[u] @ q[i])
            b_user[u] += lr * (e - reg * b_user[u])
            b_item[i] += lr * (e - reg * b_item[i])
            p_u = p[u].copy()
            p[u] += lr * (e * q[i] - reg * p_u)
            q[i] += lr * (e * p_u - reg * q[i])
        total = 0.0
        for u, i, r in samples:
            e = r - biasedmf.predict_one(mu, b_user[u], b_item[i], p[u], q[i])
            total += e * e
        penalty = float(b_user @ b_user + b_item @ b_item) + float((p * p).sum() + (q * q).sum())
        objectives.append(total + reg * penalty)
    return b_user, b_item, p, q, objectives


def sequential_bpr(matrix, factors, epochs, lr, reg, seed):
    """Per-sample BPR SGD, negatives drawn inside the loop; users with no negative are skipped."""
    coo = sp.coo_matrix(matrix.matrix)
    seen_sets = [set(s.tolist()) for s in matrix.seen]
    n_items = matrix.n_items
    rng = np.random.default_rng(seed)
    p = 0.01 * rng.standard_normal((matrix.n_users, factors))
    q = 0.01 * rng.standard_normal((n_items, factors))
    for _ in range(epochs):
        for s in rng.permutation(coo.nnz):
            u, i = int(coo.row[s]), int(coo.col[s])
            seen = seen_sets[u]
            if len(seen) >= n_items:
                continue
            j = int(rng.integers(n_items))
            while j in seen:
                j = int(rng.integers(n_items))
            g = expit(-(p[u] @ (q[i] - q[j])))
            p_u = p[u].copy()
            p[u] += lr * (g * (q[i] - q[j]) - reg * p_u)
            q[i] += lr * (g * p_u - reg * q[i])
            q[j] += lr * (-g * p_u - reg * q[j])
    return p, q


@st.composite
def rating_matrices(draw):
    """Small user-item matrices with repeated users and items (deep wavefronts).

    Hypothesis shrinks indices towards 0, so low users and items are hot. With
    ``full`` one user rates every item: BPR has no negative for that user.
    """
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    pairs = draw(st.sets(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
                         min_size=1, max_size=40))
    if draw(st.booleans()):
        pairs |= {(0, i) for i in range(n_items)}
    rows = [(f"u{u}", f"i{i}", float(draw(st.integers(1, 5))), t) for t, (u, i) in enumerate(sorted(pairs))]
    return build_train_matrix(make_dataset(rows))


SINGLE_SAMPLE = build_train_matrix(make_dataset([("u0", "i0", 4.0, 0)]))
# "full" has seen every item, so BPR draws no negative for it and skips its samples.
FULL_USER = build_train_matrix(make_dataset([("full", "a", 1.0, 0), ("full", "b", 1.0, 1), ("other", "a", 1.0, 2)]))


class TestWavefrontSGD:
    """The wavefront trainers equal the sequential per-sample loops bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(rating_matrices(), st.sampled_from([0, 1, 2, 3, 8, 17, 40]), st.integers(0, 3),
           st.sampled_from([0.01, 0.2]), st.sampled_from([0.0, 0.05]), st.integers(0, 2**32 - 1))
    @example(SINGLE_SAMPLE, 2, 3, 0.2, 0.05, 0)
    @example(SINGLE_SAMPLE, 0, 2, 0.2, 0.05, 0)
    def test_biasedmf_equals_the_sequential_loop(self, m, factors, epochs, lr, reg, seed):
        model = biasedmf.train_biasedmf(m, factors=factors, epochs=epochs, lr=lr, reg=reg, seed=seed)
        b_user, b_item, p, q, objectives = sequential_biasedmf(m, factors, epochs, lr, reg, seed)
        for got, want in ((model.b_user, b_user), (model.b_item, b_item), (model.p, p), (model.q, q)):
            assert np.array_equal(got, want)
        assert np.array_equal(model.epoch_objectives, objectives)
        assert len(model.epoch_objectives) == epochs

    @settings(max_examples=150, deadline=None)
    @given(rating_matrices(), st.sampled_from([1, 2, 3, 8, 17, 40]), st.integers(0, 3),
           st.sampled_from([0.05, 0.5]), st.sampled_from([0.0, 0.01]), st.integers(0, 2**32 - 1))
    @example(SINGLE_SAMPLE, 3, 2, 0.5, 0.01, 0)
    @example(FULL_USER, 2, 3, 0.5, 0.01, 4)
    def test_bpr_equals_the_sequential_loop(self, m, factors, epochs, lr, reg, seed):
        model = bpr.train_bpr(m, factors=factors, epochs=epochs, lr=lr, reg=reg, seed=seed)
        p, q = sequential_bpr(m, factors, epochs, lr, reg, seed)
        assert np.array_equal(model.p, p)
        assert np.array_equal(model.q, q)

    @pytest.mark.parametrize("n_users, n_items, power", [(100, 60, 3), (500, 4000, 1)])
    def test_larger_matrices_equal_the_sequential_loops(self, n_users, n_items, power):
        # power 3 makes low ids hot: 864 ratings in about 90 levels per epoch, and user 0
        # has seen 55 of 60 items, so most of its negative draws are rejected;
        # power 1 spreads 1,499 ratings thin: about 10 levels, rare rejections.
        rng = np.random.default_rng(11)
        users = (n_users * rng.random(1500) ** power).astype(int)
        items = (n_items * rng.random(1500) ** power).astype(int)
        pairs = sorted(set(zip(users.tolist(), items.tolist())))
        m = build_train_matrix(make_dataset([(f"u{u}", f"i{i}", 1.0 + (u + i) % 5, t)
                                             for t, (u, i) in enumerate(pairs)]))
        model = biasedmf.train_biasedmf(m, factors=5, epochs=2, lr=0.05, seed=3)
        assert np.array_equal(model.q, sequential_biasedmf(m, 5, 2, 0.05, 0.02, 3)[3])
        model = bpr.train_bpr(m, factors=5, epochs=2, lr=0.1, seed=3)
        assert np.array_equal(model.q, sequential_bpr(m, 5, 2, 0.1, 0.002, 3)[1])

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5)), max_size=40))
    def test_levels_share_nothing_and_keep_each_chain_in_order(self, samples):
        samples = [(u, i, j) for u, i, j in samples if i != j]
        users = np.array([s[0] for s in samples], dtype=np.int64)
        items = np.array([s[1:] for s in samples], dtype=np.int64).reshape(-1, 2)
        levels = wavefronts(users, items, 5, 6)
        order = np.concatenate(levels)
        assert sorted(order.tolist()) == list(range(len(samples)))
        level_of = np.empty(len(samples), dtype=np.int64)
        for depth, level in enumerate(levels):
            assert np.all(np.diff(level) > 0)
            assert len(set(users[level].tolist())) == level.size
            assert len(set(items[level].ravel().tolist())) == 2 * level.size
            level_of[level] = depth
        for a in range(len(samples)):
            for b in range(a + 1, len(samples)):
                if users[a] == users[b] or set(items[a].tolist()) & set(items[b].tolist()):
                    assert level_of[a] < level_of[b]


@st.composite
def block_matrices(draw):
    """Matrices whose item co-occurrence graph has several components.

    Each group of users holds items of one group only; a group can be a single
    item, and users can hold disjoint subsets of a group, which splits it.
    Item and user ids are drawn as permutations, so the blocks' columns and
    their users' rows interleave in the matrix.
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    item_names = draw(st.permutations(range(sum(sizes))))
    users_per_group = [draw(st.integers(1, 4)) for _ in sizes]
    user_names = iter(draw(st.permutations(range(sum(users_per_group)))))
    rows, start = [], 0
    for size, n_users in zip(sizes, users_per_group):
        group = [f"i{item_names[start + k]:02d}" for k in range(size)]
        start += size
        for _ in range(n_users):
            user = f"u{next(user_names):02d}"
            for item in sorted(draw(st.sets(st.sampled_from(group), min_size=1))):
                rows.append((user, item, float(draw(st.integers(1, 5))), len(rows)))
    return build_train_matrix(make_dataset(rows))


class TestEase:
    def kkt_residual(self, x_dense, b, l2):
        """Stationarity of min |X - XB|^2 + l2 |B|^2 with a zero diagonal.

        Off-diagonal entries of (X^T X + l2 I) B - X^T X must vanish; the
        diagonal absorbs the Lagrange multipliers of the constraint.
        """
        g = x_dense.T @ x_dense + l2 * np.eye(x_dense.shape[1])
        return g @ b - x_dense.T @ x_dense

    def test_weights_satisfy_stationarity_with_zero_diagonal(self):
        x = np.array([
            [1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
        ])
        l2 = 2.5
        b = ease.ease_weights(x.T @ x, l2)
        np.testing.assert_array_equal(np.diag(b), np.zeros(3))
        residual = self.kkt_residual(x, b, l2)
        off_diag = residual - np.diag(np.diag(residual))
        np.testing.assert_allclose(off_diag, np.zeros((3, 3)), atol=1e-10)

    def test_huge_penalty_shrinks_weights_to_zero(self):
        x = np.eye(4)
        b = ease.ease_weights(x.T @ x, 1e9)
        assert np.abs(b).max() < 1e-6

    def test_singular_gram_raises_with_remedy(self):
        with pytest.raises(MatrixInversionError, match="increase the l2 penalty"):
            ease.ease_weights(np.zeros((3, 3)), 0.0)

    def test_model_scores_are_history_times_weights(self):
        m = small_matrix()
        model = ease.train_ease(m, l2=3.0)
        x = m.binarized().toarray()
        np.testing.assert_allclose(model.score_users(np.arange(m.n_users)), x @ dense_b(model), atol=1e-12)

    def test_l2_must_be_positive(self):
        with pytest.raises(ValueError):
            ease.train_ease(small_matrix(), l2=0.0)

    def test_block_diagonal_weights_equal_the_dense_inverse(self):
        # Two co-occurrence components ({A, B}, {C, D, E}) and an item nobody holds twice.
        ds = make_dataset([
            ("u1", "A", 1.0, 0), ("u1", "B", 1.0, 1), ("u2", "A", 1.0, 2),
            ("u3", "C", 1.0, 3), ("u3", "D", 1.0, 4), ("u4", "D", 1.0, 5), ("u4", "E", 1.0, 6),
            ("u5", "C", 1.0, 7), ("u5", "E", 1.0, 8), ("u6", "F", 1.0, 9),
        ])
        m = build_train_matrix(ds)
        model = ease.train_ease(m, l2=1.5)
        x = m.binarized().toarray()
        p = np.linalg.inv(x.T @ x + 1.5 * np.eye(m.n_items))
        want = -p / np.diag(p)[None, :]
        np.fill_diagonal(want, 0.0)
        assert model.b.shape == (2**2 + 3**2,)  # F, a single-item component, stores nothing
        b = dense_b(model)
        np.testing.assert_allclose(b, want, atol=1e-12)
        assert not b[:2, 2:].any() and not b[2:, :2].any()
        np.testing.assert_array_equal(b[:, m.item_index["F"]], np.zeros(m.n_items))

    @settings(max_examples=150, deadline=None)
    @given(block_matrices(), st.sampled_from([0.5, 2.0, 10.0]), st.booleans(), st.data())
    def test_block_scores_equal_history_times_dense_b_bitwise(self, m, l2, binarize, data):
        model = ease.train_ease(m, l2=l2, binarize=binarize)
        idx = np.array(data.draw(st.lists(st.integers(0, m.n_users - 1), min_size=1, max_size=12)))
        assert np.array_equal(model.score_users(idx), model.x[idx] @ dense_b(model))

    def test_a_history_spanning_two_blocks_is_scored_from_both(self):
        # Unbinarized ratings of opposite sign cancel in G[A, C], so {A, B} and {C, D} are two
        # blocks although u1 and u2 hold items of both.
        ds = make_dataset([
            ("u1", "A", 1.0, 0), ("u1", "C", 1.0, 1), ("u2", "A", 1.0, 2), ("u2", "C", -1.0, 3),
            ("u3", "A", 1.0, 4), ("u3", "B", 1.0, 5), ("u4", "C", 1.0, 6), ("u4", "D", 1.0, 7),
        ])
        m = build_train_matrix(ds)
        model = ease.train_ease(m, l2=1.0, binarize=False)
        blocks = {tuple(m.item_ids[j] for j in model.weights[i].indices) for i in range(m.n_items)}
        assert sorted(blocks) == [("A", "B"), ("C", "D")]
        everyone = np.arange(m.n_users)
        scores = model.score_users(everyone)
        assert np.array_equal(scores, model.x[everyone] @ dense_b(model))
        assert scores[m.user_index["u1"], m.item_index["B"]] != 0
        assert scores[m.user_index["u1"], m.item_index["D"]] != 0

    def test_non_positive_definite_block_raises_with_remedy(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(MatrixInversionError, match="increase the l2 penalty"):
            ease.ease_weights(gram, 0.5)


def reference_rows(model, users):
    """One score row per user, written per model the way a one-user scorer would."""
    m = model.matrix
    rows = []
    for u in users:
        if isinstance(model, pop.PopularityModel):
            rows.append(model.item_scores)
        elif isinstance(model, itemknn.ItemKnnModel):
            rows.append(np.asarray(model.sims[m.seen[u], :].sum(axis=0)).ravel())
        elif isinstance(model, userknn.UserKnnModel):
            rows.append(np.asarray((model.sims[u, :] @ model.ratings).todense()).ravel())
        elif isinstance(model, biasedmf.BiasedMFModel):
            rows.append(model.mu + model.b_user[u] + model.b_item + model.q @ model.p[u])
        elif isinstance(model, (implicitmf.ImplicitMFModel, bpr.BPRModel)):
            rows.append(model.q @ model.p[u])
        else:
            rows.append(np.asarray(model.x[u, :].todense()).ravel() @ dense_b(model))
    return np.vstack(rows)


class TestBatchScoring:
    def test_score_users_equals_stacked_reference_rows(self):
        rng = np.random.default_rng(8)
        m = build_train_matrix(random_dataset(rng, n_users=14, n_items=18, min_per_user=2, max_per_user=7))
        params = {
            "pop": {}, "itemknn": {"neighbors": 4}, "userknn": {"neighbors": 4},
            "biasedmf": {"factors": 3, "epochs": 3}, "implicitmf": {"factors": 3, "iterations": 3},
            "bpr": {"factors": 3, "epochs": 3}, "ease": {"l2": 2.0},
        }
        idx = np.array([5, 0, 13, 5, 7])
        for algo in AVAILABLE_ALGORITHMS:
            model = train_algorithm(algo, m, params[algo])
            got = model.score_users(idx)
            assert got.shape == (idx.size, m.n_items), algo
            np.testing.assert_allclose(got, reference_rows(model, idx), rtol=1e-12, atol=1e-12, err_msg=algo)

    def test_batched_solve_side_equals_per_row_cho_solve(self):
        rng = np.random.default_rng(12)
        dense = rng.integers(1, 4, size=(9, 7)) * (rng.random((9, 7)) < 0.4)
        dense[[0, 4, 8]] = 0  # empty rows, the last one trailing
        csr = sp.csr_matrix(dense.astype(np.float64))
        alpha, reg = 6.0, 0.4
        for k in (1, 3, 16, 32):
            factors = rng.normal(size=(7, k))
            got = implicitmf.solve_side(factors, csr, alpha, reg)
            gram = factors.T @ factors + reg * np.eye(k)
            for u in range(csr.shape[0]):
                start, end = csr.indptr[u], csr.indptr[u + 1]
                q_s = factors[csr.indices[start:end]]
                conf = 1.0 + alpha * csr.data[start:end]
                a = gram + q_s.T @ ((conf - 1.0)[:, None] * q_s)
                want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), q_s.T @ conf)
                # Two backward-stable solves differ by at most a small multiple of cond(A) * eps * |x|.
                bound = 4 * k * np.linalg.cond(a) * np.finfo(np.float64).eps * np.linalg.norm(want)
                assert np.linalg.norm(got[u] - want) <= bound, (k, u)
            np.testing.assert_array_equal(got[[0, 4, 8]], np.zeros((3, k)))

    def test_row_blocks_do_not_change_the_factors(self, monkeypatch):
        rng = np.random.default_rng(13)
        csr = sp.csr_matrix(rng.integers(0, 3, size=(11, 6)) * (rng.random((11, 6)) < 0.5), dtype=np.float64)
        factors = rng.normal(size=(6, 4))
        whole = implicitmf.solve_side(factors, csr, 5.0, 0.3)
        monkeypatch.setattr(implicitmf, "_BLOCK_VALUES", 3 * 4 * 4)  # blocks of 3 rows, the last one short
        np.testing.assert_array_equal(implicitmf.solve_side(factors, csr, 5.0, 0.3), whole)

    def test_non_positive_definite_systems_are_a_divergence(self):
        csr = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DivergenceError, match="not positive definite"):
            implicitmf.solve_side(np.zeros((2, 2)), csr, 1.0, -1.0)


class TestPortfolio:
    def test_registry_lists_seven_algorithms(self):
        assert len(AVAILABLE_ALGORITHMS) == 7
        assert set(UNAVAILABLE) == {"fism", "line", "fpmc"}

    def test_source_paths_exist_one_file_per_algorithm(self):
        paths = {algorithm_source_path(a) for a in AVAILABLE_ALGORITHMS}
        assert len(paths) == 7

    def test_config_from_dict_with_unavailable_entry(self):
        raw = {"algorithms": [
            "pop",
            {"name": "ease", "params": {"l2": 5.0}},
            {"name": "fism", "status": "unavailable", "reason": "not shipped"},
        ]}
        config = PortfolioConfig.from_dict(raw)
        assert config.ordered_ids() == ["pop", "ease"]
        assert config.algorithms["ease"] == {"l2": 5.0}
        assert config.unavailable["fism"] == "not shipped"

    def test_config_with_no_enabled_algorithms_rejected(self):
        from recselect.errors import ConfigError
        with pytest.raises(ConfigError):
            PortfolioConfig.from_dict({"algorithms": []})

    def test_config_unknown_keys_are_named(self):
        from recselect.errors import ConfigError
        with pytest.raises(ConfigError, match="portfolio entry 'itemknn' has unknown key 'parms'"):
            PortfolioConfig.from_dict({"algorithms": [{"name": "itemknn", "parms": {"neighbors": 5}}]})
        with pytest.raises(ConfigError, match="portfolio has unknown key 'algoritms'"):
            PortfolioConfig.from_dict({"algorithms": ["pop"], "algoritms": ["ease"]})

    def test_unknown_algorithm_rejected(self):
        from recselect.errors import ConfigError
        with pytest.raises(ConfigError):
            PortfolioConfig(algorithms={"xgboostrec": {}})

    def test_train_portfolio_records_work_counts(self):
        m = build_train_matrix(random_dataset(np.random.default_rng(31), n_users=8, n_items=10,
                                              min_per_user=3, max_per_user=6))
        config = PortfolioConfig(dict(SMALL_PARAMS))
        models, again = train_portfolio(m, config), train_portfolio(m, config)
        for algo, model in models.items():
            assert type(model.train_ops) is int and model.train_ops > 0, algo
            assert model.train_ops == again[algo].train_ops, algo

    def test_train_ops_follow_their_formulas(self):
        m = build_train_matrix(random_dataset(np.random.default_rng(32), n_users=9, n_items=12,
                                              min_per_user=3, max_per_user=6))
        nnz, n_rows = m.matrix.nnz, m.n_users + m.n_items
        ops = {a: train_algorithm(a, m, p).train_ops for a, p in SMALL_PARAMS.items()}
        x = m.binarized()
        item_sims, user_sims = itemknn.cosine_similarity_columns(x), itemknn.cosine_similarity_columns(x.T.tocsr())
        weights = train_algorithm("ease", m, SMALL_PARAMS["ease"]).weights
        assert ops == {
            "pop": nnz,
            "itemknn": item_sims.nnz,
            "userknn": user_sims.nnz,
            "biasedmf": nnz * (3 + 1) * 4,
            "implicitmf": 3 * (2 * nnz * 3**2 + n_rows * 3**3),
            "bpr": nnz * 3 * 4,
            "ease": (np.diff(weights.indptr) ** 2).sum(),  # a block's k rows of k entries: Σ k³
        }

    @pytest.mark.parametrize("algo, passes", [("biasedmf", "epochs"), ("bpr", "epochs"), ("implicitmf", "iterations")])
    def test_train_ops_double_with_the_passes(self, algo, passes):
        m = build_train_matrix(random_dataset(np.random.default_rng(33)))
        once = train_algorithm(algo, m, {"factors": 3, passes: 2}).train_ops
        assert train_algorithm(algo, m, {"factors": 3, passes: 4}).train_ops == 2 * once

    def test_seeded_training_is_bit_reproducible(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n_users=8, n_items=10, min_per_user=3, max_per_user=6)
        m = build_train_matrix(ds)
        for algo, params in [("biasedmf", {"factors": 3, "epochs": 4, "seed": 11}),
                             ("implicitmf", {"factors": 3, "iterations": 3, "seed": 11}),
                             ("bpr", {"factors": 3, "epochs": 4, "seed": 11})]:
            a = train_algorithm(algo, m, params)
            b = train_algorithm(algo, m, params)
            np.testing.assert_array_equal(a.p, b.p)
            np.testing.assert_array_equal(a.q, b.q)

    def test_different_seeds_give_different_factors(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n_users=8, n_items=10, min_per_user=3, max_per_user=6)
        m = build_train_matrix(ds)
        a = train_algorithm("bpr", m, {"factors": 3, "epochs": 2, "seed": 1})
        b = train_algorithm("bpr", m, {"factors": 3, "epochs": 2, "seed": 2})
        assert not np.array_equal(a.p, b.p)

    def test_save_load_round_trip(self, tmp_path, toy_split):
        models = train_portfolio(toy_split.train, PortfolioConfig({"ease": {"l2": 4.0}}))
        path = tmp_path / "ease.pkl"
        save_model(models["ease"], str(path))
        back = load_model(str(path))
        everyone = np.arange(back.matrix.n_users)
        assert np.array_equal(back.score_users(everyone), models["ease"].score_users(everyone))
        saved = models["ease"].weights
        assert saved.nnz
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(back.weights, part), getattr(saved, part))

    def test_load_rejects_tampered_config(self, tmp_path, toy_split):
        import pickle
        models = train_portfolio(toy_split.train, PortfolioConfig({"ease": {"l2": 4.0}}))
        path = tmp_path / "ease.pkl"
        save_model(models["ease"], str(path))
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["model"].config["l2"] = 99.0
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(ValueError, match="config hash"):
            load_model(str(path))

    def test_load_rejects_an_older_format(self, tmp_path, toy_split):
        """An itemknn pickled before it held its history (1), or an ease before it held its weights
        as one CSR (2), would fail only when it scores."""
        import pickle
        models = train_portfolio(toy_split.train, PortfolioConfig({"itemknn": {"neighbors": 2}, "ease": {}}))
        for algo, version in (("itemknn", 1), ("ease", 2)):
            path = tmp_path / f"{algo}.pkl"
            save_model(models[algo], str(path))
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            payload["format_version"] = version
            with open(path, "wb") as fh:
                pickle.dump(payload, fh)
            with pytest.raises(ValueError, match="unsupported model format"):
                load_model(str(path))
