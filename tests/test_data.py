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

from conftest import make_dataset, random_dataset


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
        got = {(it.user, it.item): it.rating for it in ds.interactions}
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
        assert len(ds.interactions) == 1
        it = ds.interactions[0]
        assert it.rating == 5.0
        assert it.timestamp == 9  # later clock survives regardless of row order

    def test_duplicate_pairs_mean(self):
        rows = [
            {"u": "a", "i": "x", "r": "2", "t": "1"},
            {"u": "a", "i": "x", "r": "3", "t": "2"},
        ]
        config = IngestConfig(name="d", user_col="u", item_col="i", rating_col="r",
                              timestamp_col="t", dedup="mean")
        ds = ingest_raw(rows, config)
        assert ds.interactions[0].rating == 2.5

    def test_missing_timestamp_column_uses_row_order(self):
        rows = [{"u": "a", "i": "x"}, {"u": "a", "i": "y"}, {"u": "b", "i": "x"}]
        config = IngestConfig(name="d", user_col="u", item_col="i")
        ds = ingest_raw(rows, config)
        assert [it.timestamp for it in ds.interactions] == [0, 1, 2]
        assert all(it.rating == 1.0 for it in ds.interactions)

    def test_blank_timestamp_value_falls_back_to_row_index(self):
        rows = [{"u": "a", "i": "x", "t": "50"}, {"u": "a", "i": "y", "t": ""}]
        config = IngestConfig(name="d", user_col="u", item_col="i", timestamp_col="t")
        ds = ingest_raw(rows, config)
        assert [it.timestamp for it in ds.interactions] == [50, 1]

    def test_missing_required_column_is_schema_error(self):
        rows = [{"u": "a", "r": "1"}]
        config = IngestConfig(name="d", user_col="u", item_col="i")
        with pytest.raises(SchemaError, match="'i'"):
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
        assert [(it.user, it.item) for it in ds.interactions] == [("b", "y"), ("a", "x")]
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
        assert from_file.interactions == from_rows.interactions

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
        assert once.interactions == twice.interactions


class TestTemporalSplit:
    def test_eighty_twenty_on_ten_interactions(self):
        rows = [("a", f"i{j}", 1.0, j) for j in range(10)]
        split = temporal_split_per_user(make_dataset(rows), 0.2)
        assert len(split.train.interactions) == 8
        assert len(split.test.interactions) == 2
        assert {it.item for it in split.test.interactions} == {"i8", "i9"}

    def test_minimum_one_test_interaction(self):
        rows = [("a", "x", 1.0, 0), ("a", "y", 1.0, 1)]
        split = temporal_split_per_user(make_dataset(rows), 0.2)
        assert len(split.test.interactions) == 1
        assert split.test.interactions[0].item == "y"

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
        merged = sorted(split.train.interactions + split.test.interactions,
                        key=lambda it: (it.user, it.item, it.timestamp))
        original = sorted(ds.interactions, key=lambda it: (it.user, it.item, it.timestamp))
        assert merged == original

    def test_test_side_holds_the_latest_timestamps(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n_users=10, min_per_user=4, max_per_user=9)
        split = temporal_split_per_user(ds, 0.25)
        train_by_user = split.train.by_user()
        for user, test_its in split.test.by_user().items():
            max_train = max(it.timestamp for it in train_by_user[user])
            assert all(it.timestamp >= max_train for it in test_its)

    def test_timestamp_ties_resolve_by_log_order(self):
        rows = [("a", "first", 1.0, 5), ("a", "second", 1.0, 5), ("a", "third", 1.0, 5)]
        split = temporal_split_per_user(make_dataset(rows), 0.2)
        assert [it.item for it in split.test.interactions] == ["third"]

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
        assert len(split.test.interactions) == max(1, math.floor(fraction * n))


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
        assert back.interactions == ds.interactions

    def test_fractional_ratings_survive_exactly(self, tmp_path):
        ds = make_dataset([("a", "x", 2.5, 0), ("a", "y", 1 / 3, 1)])
        path = tmp_path / "frac.csv"
        write_interactions_csv(ds, path)
        back = read_interactions_csv(path)
        assert [it.rating for it in back.interactions] == [2.5, 1 / 3]

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
        assert a.interactions == b.interactions

    def test_full_fraction_is_identity(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=8)
        assert sample_users(ds, 1.0, seed=0) is ds

    def test_fraction_bounds(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_users=8)
        with pytest.raises(ValueError):
            sample_users(ds, 0.0, seed=0)
