"""User feature extraction: frozen hand-worked values plus invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recselect.data import temporal_split_per_user
from recselect.errors import SchemaError
from recselect.user_features import (
    RAW_TIMESCALE_FEATURES,
    USER_FEATURE_NAMES,
    UserFeatureTable,
    compute_user_features,
    rating_entropy,
    user_feature_table,
)

from conftest import interaction_logs, make_dataset, rows_by_user


def idx(name):
    return USER_FEATURE_NAMES.index(name)


def reference_table(rows):
    """The feature matrix by per-user loops over (user, item, rating, timestamp) rows: per-user
    arrays of ratings, timestamps and item popularities, users in order of first appearance."""
    popularity = {}
    grouped = {}
    for user, item, rating, timestamp in rows:
        popularity[item] = popularity.get(item, 0) + 1
        grouped.setdefault(user, []).append((item, rating, timestamp))
    matrix = []
    for history in grouped.values():
        ratings = np.asarray([r for _, r, _ in history], dtype=np.float64)
        timestamps = np.sort(np.asarray([t for _, _, t in history], dtype=np.float64))
        pops = np.asarray([popularity[i] for i, _, _ in history], dtype=np.float64)
        diffs = np.diff(timestamps)
        matrix.append([
            float(len(history)), float(len({i for i, _, _ in history})),
            float(ratings.mean()), float(ratings.std()), float(ratings.min()), float(ratings.max()),
            float(np.median(ratings)), rating_entropy(ratings),
            float(timestamps[-1] - timestamps[0]), float(timestamps[0]), float(timestamps[-1]),
            float(diffs.mean()) if diffs.size else 0.0,
            float(pops.mean()), float(np.median(pops)), float(pops.std()),
        ])
    return list(grouped), np.array(matrix)


def one_user_features(ds, popularity=None):
    """``compute_user_features`` of a one-user log, popularity counted on it unless given."""
    popularity = np.bincount(ds.items) if popularity is None else np.asarray(popularity)
    return compute_user_features(ds.items, ds.ratings, ds.timestamps, popularity)


class TestNames:
    def test_fifteen_features_in_fixed_order(self):
        assert len(USER_FEATURE_NAMES) == 15
        assert USER_FEATURE_NAMES[0] == "num_interactions"
        assert USER_FEATURE_NAMES[-1] == "std_item_pop_interacted"

    def test_raw_timescale_subset(self):
        assert RAW_TIMESCALE_FEATURES == (
            "history_duration_seconds",
            "first_interaction_ts",
            "last_interaction_ts",
            "avg_time_diff_interactions",
        )
        assert set(RAW_TIMESCALE_FEATURES) <= set(USER_FEATURE_NAMES)


class TestEntropy:
    def test_uniform_two_values_is_one_bit(self):
        assert rating_entropy(np.array([1.0, 1.0, 2.0, 2.0])) == pytest.approx(1.0)

    def test_constant_ratings_have_zero_entropy(self):
        assert rating_entropy(np.array([3.0, 3.0, 3.0])) == 0.0

    def test_four_distinct_values_give_two_bits(self):
        assert rating_entropy(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(2.0)

    def test_skewed_distribution(self):
        # p = [1/3, 2/3]
        want = -(np.log2(1 / 3) / 3 + 2 * np.log2(2 / 3) / 3)
        assert rating_entropy(np.array([2.0, 4.0, 4.0])) == pytest.approx(want)

    @given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]), min_size=1, max_size=40))
    def test_bounded_by_log_of_distinct_count(self, ratings):
        h = rating_entropy(np.array(ratings))
        assert -1e-12 <= h <= np.log2(len(set(ratings))) + 1e-12


class TestComputeUserFeatures:
    def fixture(self):
        ds = make_dataset([("u", "A", 2.0, 100), ("u", "B", 4.0, 50), ("u", "A", 4.0, 200)])
        return one_user_features(ds)

    def test_hand_worked_vector(self):
        vec = self.fixture()
        want = {
            "num_interactions": 3.0,
            "num_unique_items": 2.0,
            "avg_rating": 10 / 3,
            "std_rating": np.sqrt(8 / 9),
            "min_rating": 2.0,
            "max_rating": 4.0,
            "median_rating": 4.0,
            "rating_entropy": 0.9182958340544896,
            "history_duration_seconds": 150.0,
            "first_interaction_ts": 50.0,
            "last_interaction_ts": 200.0,
            "avg_time_diff_interactions": 75.0,
            "avg_item_pop_interacted": 5 / 3,
            "median_item_pop_interacted": 2.0,
            "std_item_pop_interacted": np.sqrt(2 / 9),
        }
        for name, value in want.items():
            assert vec[idx(name)] == pytest.approx(value), name

    def test_std_is_population_not_sample(self):
        ds = make_dataset([("u", "A", 1.0, 0), ("u", "B", 2.0, 1), ("u", "C", 3.0, 2)])
        vec = one_user_features(ds)
        assert vec[idx("std_rating")] == pytest.approx(0.816496580927726)

    def test_single_interaction_degenerate_values(self):
        ds = make_dataset([("u", "A", 3.5, 42)])
        vec = one_user_features(ds, [1])
        assert vec[idx("num_interactions")] == 1.0
        assert vec[idx("std_rating")] == 0.0
        assert vec[idx("rating_entropy")] == 0.0
        assert vec[idx("history_duration_seconds")] == 0.0
        assert vec[idx("avg_time_diff_interactions")] == 0.0
        assert vec[idx("first_interaction_ts")] == 42.0
        assert vec[idx("last_interaction_ts")] == 42.0

    def test_timestamps_sorted_before_differencing(self):
        ds = make_dataset([("u", "A", 1.0, 300), ("u", "B", 1.0, 0), ("u", "C", 1.0, 30)])
        vec = one_user_features(ds)
        assert vec[idx("avg_time_diff_interactions")] == pytest.approx(150.0)

    def test_unknown_item_counts_as_zero_popularity(self):
        ds = make_dataset([("u", "ghost", 1.0, 0)])
        vec = one_user_features(ds, [0])  # no training count
        assert vec[idx("avg_item_pop_interacted")] == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            compute_user_features(np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))


class TestPopularityTable:
    def test_counts_interactions_not_users(self):
        ds = make_dataset([
            ("u", "A", 1.0, 0), ("u", "A", 1.0, 1),
            ("v", "A", 1.0, 2), ("v", "B", 1.0, 3),
        ])
        table = user_feature_table(ds)
        assert table.row("u")[idx("avg_item_pop_interacted")] == 3.0  # A: three interactions, two users
        assert table.row("v")[idx("median_item_pop_interacted")] == 2.0  # (3 + 1) / 2

    def test_popularity_is_shared_across_users(self):
        ds = make_dataset([
            ("fan", "hit", 5.0, 0),
            ("u1", "hit", 5.0, 1), ("u1", "rare", 1.0, 2),
            ("u2", "hit", 5.0, 3),
        ])
        table = user_feature_table(ds)
        assert table.row("fan")[idx("avg_item_pop_interacted")] == 3.0
        assert table.row("u1")[idx("avg_item_pop_interacted")] == 2.0  # (3 + 1) / 2


class TestColumns:
    @given(rows=interaction_logs())
    @settings(max_examples=200, deadline=None)
    def test_table_matches_the_per_user_reference_bit_for_bit(self, rows):
        table = user_feature_table(make_dataset(rows))
        users, matrix = reference_table(rows)
        assert table.users == users
        assert table.matrix.tobytes() == matrix.tobytes()


class TestTrainOnly:
    def test_features_ignore_the_test_side(self):
        rows = []
        for u in ("a", "b", "c"):
            for t in range(6):
                rows.append((u, f"i{t}", 1.0 + t % 3, t * 10))
        ds = make_dataset(rows)
        split = temporal_split_per_user(ds, 0.34)
        table = user_feature_table(split.train)
        per_user_train = rows_by_user(split.train)
        for u in table.users:
            assert table.row(u)[idx("num_interactions")] == len(per_user_train[u])
            assert table.row(u)[idx("last_interaction_ts")] == max(t for _, _, t in per_user_train[u])


class TestTable:
    def build(self):
        ds = make_dataset([
            ("a", "x", 1.0, 0), ("a", "y", 2.0, 5),
            ("b", "x", 3.0, 1), ("b", "z", 4.5, 9),
        ])
        return user_feature_table(ds)

    def test_row_order_matches_dataset_user_order(self):
        table = self.build()
        assert table.users == ["a", "b"]
        assert table.matrix.shape == (2, 15)

    def test_subset_reorders_rows(self):
        table = self.build()
        sub = table.subset(["b", "a"])
        np.testing.assert_array_equal(sub.matrix[0], table.row("b"))
        np.testing.assert_array_equal(sub.matrix[1], table.row("a"))

    def test_csv_round_trip_is_exact(self, tmp_path):
        table = self.build()
        path = tmp_path / "uf.csv"
        table.to_csv(path)
        back = UserFeatureTable.from_csv(path)
        assert back.users == table.users
        np.testing.assert_array_equal(back.matrix, table.matrix)

    def test_wrong_header_raises_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,wrong\na,1.0\n")
        with pytest.raises(SchemaError):
            UserFeatureTable.from_csv(path)

    @pytest.mark.parametrize("header, body, message", [
        ("user", "", "uf.csv: no user rows after the header"),
        ("id", "a" + ",1" * 15 + "\n", "uf.csv: expected 'user' as the first header column, found 'id'"),
        ("user", "a" + ",1" * 14 + ",nan\n", "line 2 .* non-finite"),
        ("user", "a" + ",1" * 14 + "\n", "line 2 has 15 fields, the header has 16"),
        ("user", "a" + ",1" * 15 + "\na" + ",2" * 15 + "\n", "line 3 repeats user 'a'"),
    ])
    def test_from_csv_rejects_malformed_rows(self, tmp_path, header, body, message):
        path = tmp_path / "uf.csv"
        path.write_text(",".join((header,) + USER_FEATURE_NAMES) + "\n" + body)
        with pytest.raises(SchemaError, match=message):
            UserFeatureTable.from_csv(path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_features_rejected(self):
        ds = make_dataset([("a", "x", float("inf"), 0)])
        with pytest.raises(ValueError, match="finite"):
            user_feature_table(ds)
