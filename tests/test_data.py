"""Ingestion, filtering, temporal splitting, stats, and CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recselect.data import (
    DatasetStats,
    IngestConfig,
    dataset_stats,
    filter_min_interactions,
    ingest_raw,
    read_interactions_csv,
    sample_users,
    temporal_split_per_user,
    write_interactions_csv,
)
from recselect.errors import EmptyDatasetError, RowParseError, SchemaError

from conftest import interaction_logs, log_rows, make_dataset, random_dataset, rows_by_user


def reference_split(rows, test_fraction):
    """The per-user split by loops: each user's positions sorted by (timestamp, position), the
    last ``max(1, floor(test_fraction * n))`` to test; returns the train and test rows in log order."""
    positions = {}
    for pos, (user, _, _, _) in enumerate(rows):
        positions.setdefault(user, []).append(pos)
    test_positions = set()
    for user_positions in positions.values():
        order = sorted(user_positions, key=lambda p: (rows[p][3], p))
        n_test = max(1, math.floor(test_fraction * len(order)))
        test_positions.update(order[len(order) - n_test:])
    return ([row for pos, row in enumerate(rows) if pos not in test_positions],
            [row for pos, row in enumerate(rows) if pos in test_positions])


class TestIngest:
    def test_event_weights_map_labels_to_ratings(self):
        rows = [
            {"visitor": "v1", "sku": "s1", "event": "view", "ts": "100"},
            {"visitor": "v1", "sku": "s2", "event": "transaction", "ts": "200"},
            {"visitor": "v2", "sku": "s1", "event": "addtocart", "ts": "300"},
        ]
        config = IngestConfig(
            name="retail",
            user_col="visitor",
            item_col="sku",
            rating_col="event",
            timestamp_col="ts",
            event_weights={"view": 1.0, "addtocart": 2.0, "transaction": 4.0},
        )
        ds = ingest_raw(rows, config)
        got = {(u, i): r for u, i, r, _ in log_rows(ds)}
        assert got == {("v1", "s1"): 1.0, ("v1", "s2"): 4.0, ("v2", "s1"): 2.0}

    def test_unknown_event_label_is_a_row_error(self):
        rows = [{"u": "a", "i": "x", "e": "view"}, {"u": "a", "i": "y", "e": "purchase"}]
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="e",
                              event_weights={"view": 1.0})
        with pytest.raises(RowParseError, match="row 1") as err:
            ingest_raw(rows, config)
        assert err.value.row_index == 1

    def test_duplicate_pairs_sum_and_keep_latest_timestamp(self):
        rows = [
            {"u": "a", "i": "x", "r": "2", "t": "9"},
            {"u": "a", "i": "x", "r": "3", "t": "5"},
        ]
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="r",
                              timestamp_col="t", dedup="sum")
        ds = ingest_raw(rows, config)
        assert log_rows(ds) == [("a", "x", 5.0, 9)]  # later clock survives regardless of row order

    def test_duplicate_pairs_mean(self):
        rows = [
            {"u": "a", "i": "x", "r": "2", "t": "1"},
            {"u": "a", "i": "x", "r": "3", "t": "2"},
        ]
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="r",
                              timestamp_col="t", dedup="mean")
        ds = ingest_raw(rows, config)
        assert ds.ratings.tolist() == [2.5]

    def test_missing_timestamp_column_uses_row_order(self):
        rows = [{"u": "a", "i": "x"}, {"u": "a", "i": "y"}, {"u": "b", "i": "x"}]
        config = IngestConfig(name="d", user_col="u", item_col="i")
        ds = ingest_raw(rows, config)
        assert ds.timestamps.tolist() == [0, 1, 2]
        assert ds.ratings.tolist() == [1.0, 1.0, 1.0]

    def test_blank_timestamp_value_falls_back_to_row_index(self):
        rows = [{"u": "a", "i": "x", "t": "50"}, {"u": "a", "i": "y", "t": ""}]
        config = IngestConfig(name="d", user_col="u", item_col="i", timestamp_col="t")
        ds = ingest_raw(rows, config)
        assert ds.timestamps.tolist() == [50, 1]

    def test_missing_required_column_is_schema_error(self):
        rows = [{"u": "a", "r": "1"}]
        config = IngestConfig(name="d", user_col="u", item_col="i")
        with pytest.raises(SchemaError, match="'i'"):
            ingest_raw(rows, config)

    def test_timestamp_outside_int64_names_the_row(self):
        rows = [{"u": "a", "i": "x", "t": "5"}, {"u": "a", "i": "y", "t": "1e400"}]
        config = IngestConfig(name="d", user_col="u", item_col="i", timestamp_col="t")
        with pytest.raises(RowParseError, match=r"row 1: timestamp '1e400' .* int64"):
            ingest_raw(rows, config)

    def test_non_numeric_rating_names_the_row(self):
        rows = [{"u": "a", "i": "x", "r": "4"}, {"u": "a", "i": "y", "r": "bad"}]
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="r")
        with pytest.raises(RowParseError, match="row 1"):
            ingest_raw(rows, config)

    @pytest.mark.parametrize("rating", ["0", "-1", "nan", "inf"])
    def test_nonpositive_or_nonfinite_rating_rejected(self, rating):
        rows = [{"u": "a", "i": "x", "r": rating}]
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="r")
        with pytest.raises(RowParseError):
            ingest_raw(rows, config)

    def test_empty_input_raises(self):
        config = IngestConfig(name="d", user_col="u", item_col="i")
        with pytest.raises(EmptyDatasetError):
            ingest_raw([], config)

    def test_output_order_is_first_appearance(self):
        rows = [
            {"u": "b", "i": "y", "t": "3"},
            {"u": "a", "i": "x", "t": "1"},
            {"u": "b", "i": "y", "t": "7"},
        ]
        config = IngestConfig(name="d", user_col="u", item_col="i", timestamp_col="t")
        ds = ingest_raw(rows, config)
        assert [(u, i) for u, i, _, _ in log_rows(ds)] == [("b", "y"), ("a", "x")]
        assert ds.user_ids == ["b", "a"]

    def test_csv_path_and_dict_rows_agree(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("u,i,r,t\na,x,2,5\nb,y,3,6\n")
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="r",
                              timestamp_col="t")
        from_file = ingest_raw(str(path), config)
        from_rows = ingest_raw(
            [{"u": "a", "i": "x", "r": "2", "t": "5"}, {"u": "b", "i": "y", "r": "3", "t": "6"}],
            config,
        )
        assert log_rows(from_file) == log_rows(from_rows)

    def test_event_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            IngestConfig(name="d", user_col="u", item_col="i", rating_col="e",
                         event_weights={"view": 0.0})

    def test_unknown_dedup_mode_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(name="d", user_col="u", item_col="i", dedup="max")


class TestFilterMinInteractions:
    def test_boundary_is_inclusive(self):
        rows = [("a", f"i{j}", 1.0, j) for j in range(10)]
        rows += [("b", f"i{j}", 1.0, j) for j in range(9)]
        ds = make_dataset(rows)
        kept = filter_min_interactions(ds, 10)
        assert kept.user_ids == ["a"]

    def test_orphaned_items_disappear_from_id_maps(self):
        rows = [("a", "shared", 1.0, 0), ("a", "a_only", 1.0, 1),
                ("b", "shared", 1.0, 2)]
        ds = make_dataset(rows)
        kept = filter_min_interactions(ds, 2)
        assert kept.user_ids == ["a"]
        assert set(kept.item_ids) == {"shared", "a_only"}

    def test_all_users_dropped_raises(self):
        ds = make_dataset([("a", "x", 1.0, 0)])
        with pytest.raises(EmptyDatasetError):
            filter_min_interactions(ds, 2)

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        ds = random_dataset(rng, n_users=20, min_per_user=2, max_per_user=12)
        once = filter_min_interactions(ds, 5)
        twice = filter_min_interactions(once, 5)
        assert log_rows(once) == log_rows(twice)


class TestTemporalSplit:
    def test_eighty_twenty_on_ten_interactions(self):
        rows = [("a", f"i{j}", 1.0, j) for j in range(10)]
        split = temporal_split_per_user(make_dataset(rows), 0.2)
        assert len(split.train) == 8
        assert len(split.test) == 2
        assert set(split.test.item_ids) == {"i8", "i9"}

    def test_minimum_one_test_interaction(self):
        rows = [("a", "x", 1.0, 0), ("a", "y", 1.0, 1)]
        split = temporal_split_per_user(make_dataset(rows), 0.2)
        assert len(split.test) == 1
        assert split.test.item_ids == ["y"]

    def test_every_user_in_both_sides(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n_users=15)
        split = temporal_split_per_user(ds, 0.2)
        assert set(split.train.user_ids) == set(ds.user_ids)
        assert set(split.test.user_ids) == set(ds.user_ids)

    def test_partition_is_exact(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng)
        split = temporal_split_per_user(ds, 0.3)
        assert sorted(log_rows(split.train) + log_rows(split.test)) == sorted(log_rows(ds))

    def test_test_side_holds_the_latest_timestamps(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n_users=10, min_per_user=4, max_per_user=9)
        split = temporal_split_per_user(ds, 0.25)
        train_by_user = rows_by_user(split.train)
        for user, test_rows in rows_by_user(split.test).items():
            max_train = max(t for _, _, t in train_by_user[user])
            assert all(t >= max_train for _, _, t in test_rows)

    def test_timestamp_ties_resolve_by_log_order(self):
        rows = [("a", "first", 1.0, 5), ("a", "second", 1.0, 5), ("a", "third", 1.0, 5)]
        split = temporal_split_per_user(make_dataset(rows), 0.2)
        assert split.test.item_ids == ["third"]

    @given(rows=interaction_logs(min_per_user=2),
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_user_reference_bit_for_bit(self, rows, fraction):
        split = temporal_split_per_user(make_dataset(rows), fraction)
        for got, want in zip((split.train, split.test), reference_split(rows, fraction)):
            assert got.user_ids == list(dict.fromkeys(row[0] for row in want))
            assert got.item_ids == list(dict.fromkeys(row[1] for row in want))
            assert log_rows(got) == want
            assert got.ratings.tobytes() == np.array([row[2] for row in want]).tobytes()

    def test_single_interaction_user_rejected(self):
        ds = make_dataset([("a", "x", 1.0, 0), ("a", "y", 1.0, 1), ("b", "x", 1.0, 2)])
        with pytest.raises(EmptyDatasetError, match="user 'b' .* training part would be empty"):
            temporal_split_per_user(ds, 0.2)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        ds = make_dataset([("a", "x", 1.0, 0), ("a", "y", 1.0, 1)])
        with pytest.raises(ValueError):
            temporal_split_per_user(ds, fraction)

    @given(n=st.integers(min_value=2, max_value=40),
           fraction=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_test_count_formula(self, n, fraction):
        rows = [("a", f"i{j}", 1.0, j) for j in range(n)]
        split = temporal_split_per_user(make_dataset(rows), fraction)
        assert len(split.test) == max(1, math.floor(fraction * n))


class TestDatasetStats:
    def test_half_dense_toy(self):
        ds = make_dataset([("a", "x", 1.0, 0), ("b", "y", 1.0, 1)])
        stats = dataset_stats(ds)
        assert stats.users == 2 and stats.items == 2 and stats.interactions == 2
        assert stats.sparsity == 0.5

    def test_fully_observed_grid_has_zero_sparsity(self):
        rows = [(u, i, 1.0, t) for t, (u, i) in enumerate(
            (u, i) for u in ("a", "b") for i in ("x", "y"))]
        assert dataset_stats(make_dataset(rows)).sparsity == 0.0

    def test_corpus_scale_counts(self):
        # 6040 users x 3706 items with 1,000,209 interactions
        stats = DatasetStats.from_counts(6040, 3706, 1000209)
        assert abs(stats.sparsity - 0.9553) < 5e-5

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(EmptyDatasetError):
            DatasetStats.from_counts(0, 5, 5)


class TestCsvRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, name="roundtrip")
        path = tmp_path / "roundtrip.csv"
        write_interactions_csv(ds, path)
        back = read_interactions_csv(path)
        assert back.name == "roundtrip"
        assert log_rows(back) == log_rows(ds)

    def test_fractional_ratings_survive_exactly(self, tmp_path):
        ds = make_dataset([("a", "x", 2.5, 0), ("a", "y", 1 / 3, 1)])
        path = tmp_path / "frac.csv"
        write_interactions_csv(ds, path)
        back = read_interactions_csv(path)
        assert back.ratings.tolist() == [2.5, 1 / 3]

    @pytest.mark.parametrize("timestamp", ["inf", "-inf", "nan", "1e400", "9.3e18", "-1e19", "9223372036854775808"])
    def test_timestamp_outside_int64_is_a_row_error(self, tmp_path, timestamp):
        path = tmp_path / "d.csv"
        path.write_text(f"user,item,rating,timestamp\na,x,1.0,0\na,y,1.0,{timestamp}\n")
        with pytest.raises(RowParseError, match=rf"row 1: timestamp '{timestamp}' .* int64"):
            read_interactions_csv(path)

    def test_timestamps_at_the_int64_ends_are_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user,item,rating,timestamp\na,x,1.0,-9223372036854775808\na,y,1.0,9.2233720368547748e18\n")
        assert read_interactions_csv(path).timestamps.tolist() == [-2**63, 2**63 - 1024]

    def test_integer_timestamps_keep_every_digit(self, tmp_path):
        """Nanosecond clocks lie above 2**53, where reading through a float ties these two stamps."""
        path = tmp_path / "d.csv"
        path.write_text("user,item,rating,timestamp\na,x,1.0,1600000000123456789\na,y,1.0,1600000000123456700\n")
        ds = read_interactions_csv(path)
        assert ds.timestamps.tolist() == [1600000000123456789, 1600000000123456700]
        split = temporal_split_per_user(ds, 0.5)
        assert [split.test.item_ids[i] for i in split.test.items] == ["x"]  # the later stamp, listed first

    def test_repeated_pair_is_a_row_error_naming_both_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user,item,rating,timestamp\na,x,1.0,1\na,y,1.0,2\nb,x,1.0,3\na,x,1.0,9\n")
        with pytest.raises(RowParseError, match=r"row 3: user 'a' and item 'x' repeat row 0"):
            read_interactions_csv(path)

    def test_wrong_header_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,item,score,timestamp\na,x,1,0\n")
        with pytest.raises(SchemaError):
            read_interactions_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("user,item,rating,timestamp\n")
        with pytest.raises(EmptyDatasetError):
            read_interactions_csv(path)


class TestSampleUsers:
    def test_keeps_rounded_fraction_of_users(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=50)
        sampled = sample_users(ds, 0.1, seed=1)
        assert sampled.n_users == 5

    def test_same_seed_same_subset(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=30)
        a = sample_users(ds, 0.3, seed=9)
        b = sample_users(ds, 0.3, seed=9)
        assert log_rows(a) == log_rows(b)

    def test_full_fraction_is_identity(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=8)
        assert sample_users(ds, 1.0, seed=0) is ds

    def test_fraction_bounds(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=8)
        with pytest.raises(ValueError):
            sample_users(ds, 0.0, seed=0)
