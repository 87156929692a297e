"""Structural guarantees of the synthetic benchmark and probe generators."""

import csv

import numpy as np
import pytest

from recselect.data import temporal_split_per_user
from recselect.errors import ConfigError
from recselect.synth import (
    EVENT_TYPES,
    PLANTED_NAME,
    PROBE_GENERATORS,
    neighborhood_clustered,
    planted_two_population,
    popularity_skewed,
    uniform_sparse,
    sample_event_log,
    write_event_log,
)
from conftest import default_probes, log_rows, rows_by_user


def popularity(ds):
    """Interactions per item id."""
    return dict(zip(ds.item_ids, np.bincount(ds.items).tolist()))


@pytest.fixture(scope="module")
def ds():
    return planted_two_population()


class TestPlantedBenchmark:
    def test_population_sizes_and_histories(self, ds):
        assert ds.name == PLANTED_NAME
        by_user = rows_by_user(ds)
        mains = [u for u in ds.user_ids if u.startswith("main")]
        niches = [u for u in ds.user_ids if u.startswith("niche")]
        assert len(mains) == len(niches) == 100
        assert all(len(by_user[u]) == 16 for u in mains)
        assert all(len(by_user[u]) == 11 for u in niches)

    def test_main_users_train_exactly_one_head(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        test_by_user = rows_by_user(split.test)
        for user, history in rows_by_user(split.train).items():
            if not user.startswith("main"):
                continue
            train_heads = [item for item, _, _ in history if item.startswith("h")]
            test_heads = [item for item, _, _ in test_by_user[user] if item.startswith("h")]
            assert len(train_heads) == 1
            assert len(test_heads) == 3

    def test_heads_never_co_occur_in_training(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        for history in rows_by_user(split.train).values():
            heads = [item for item, _, _ in history if item.startswith("h")]
            assert len(heads) <= 1

    def test_niche_users_stay_inside_one_cluster(self, ds):
        for user, history in rows_by_user(ds).items():
            if not user.startswith("niche"):
                continue
            prefixes = {item.split("_")[0] for item, _, _ in history}
            assert len(prefixes) == 1
            assert prefixes.pop().startswith("c")

    def test_niche_users_never_touch_heads_or_junk(self, ds):
        for user, history in rows_by_user(ds).items():
            if user.startswith("niche"):
                assert all(item.startswith("c") for item, _, _ in history)

    def test_populations_separate_on_train_popularity(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        pops = popularity(split.train)
        by_user = rows_by_user(split.train)

        def avg_pop(user):
            return float(np.mean([pops[item] for item, _, _ in by_user[user]]))

        main_pops = [avg_pop(u) for u in by_user if u.startswith("main")]
        niche_pops = [avg_pop(u) for u in by_user if u.startswith("niche")]
        assert max(main_pops) < min(niche_pops)

    def test_generation_is_seed_deterministic(self):
        a = planted_two_population(seed=3, users_per_group=10, clusters=5)
        b = planted_two_population(seed=3, users_per_group=10, clusters=5)
        c = planted_two_population(seed=4, users_per_group=10, clusters=5)
        assert log_rows(a) == log_rows(b)
        assert log_rows(a) != log_rows(c)

    def test_timestamps_are_the_row_sequence(self, ds):
        assert ds.timestamps.tolist() == list(range(len(ds)))

    def test_head_training_counts_follow_weight_order(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        pops = popularity(split.train)
        head_counts = [pops.get(f"h{i:03d}", 0) for i in range(20)]
        # Weighted sampling puts most single-head draws on the first few heads.
        assert sum(head_counts[:5]) > sum(head_counts[15:])


@pytest.mark.parametrize("generate, message", [
    (lambda: planted_two_population(cluster_size=5), "parameter 'cluster_size' must be >= 11, found 5"),
    (lambda: planted_two_population(head_items=3), "parameter 'head_items' must be >= 4, found 3"),
    (lambda: planted_two_population(users_per_group=0), "parameter 'users_per_group' must be >= 1, found 0"),
    (lambda: planted_two_population(users_per_group=-3), "parameter 'users_per_group' must be >= 1, found -3"),
    (lambda: planted_two_population(clusters=0), "parameter 'clusters' must be >= 1, found 0"),
    (lambda: uniform_sparse(n_items=5, per_user=6), "parameter 'per_user' must be <= n_items = 5, found 6"),
    (lambda: popularity_skewed(n_users=0), "the popularity_skewed parameters generate no interactions"),
    (lambda: neighborhood_clustered(per_user=0), "the neighborhood_clustered parameters generate no interactions"),
    (lambda: sample_event_log(n_rows=0), "event_log parameter 'n_rows' must be >= 1, found 0"),
])
def test_bad_parameters_name_their_bound_or_the_empty_log(generate, message):
    with pytest.raises(ConfigError, match=message):
        generate()


class TestProbes:
    def test_registry_and_default_bundle(self):
        assert set(PROBE_GENERATORS) == {
            "popularity_skewed", "neighborhood_clustered", "uniform_sparse",
        }
        probes = default_probes(seed=0)
        assert set(probes) == set(PROBE_GENERATORS)
        for name, ds in probes.items():
            assert ds.name == name
            assert len(ds) > 0

    def test_default_bundle_sub_seeds_differ(self):
        a = default_probes(seed=0)
        b = default_probes(seed=1)
        for name in a:
            assert log_rows(a[name]) != log_rows(b[name])

    def test_popularity_skewed_concentrates_mass(self):
        ds = popularity_skewed()
        pops = sorted(popularity(ds).values(), reverse=True)
        assert pops[0] > 3 * pops[-1]

    def test_neighborhood_probe_users_stay_clustered(self):
        ds = neighborhood_clustered()
        for user, history in rows_by_user(ds).items():
            assert len({item.split("_")[0] for item, _, _ in history}) == 1
            assert len(history) == 11

    def test_uniform_probe_has_flat_ratings(self):
        ds = uniform_sparse()
        assert set(ds.ratings.tolist()) == {1.0}
        assert all(len(h) == 12 for h in rows_by_user(ds).values())

    def test_every_probe_supports_a_temporal_split(self):
        for ds in default_probes(seed=5).values():
            split = temporal_split_per_user(ds, 0.2)
            assert set(split.train.user_ids) == set(ds.user_ids)


class TestEventLog:
    def test_layout_and_determinism(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_event_log(sample_event_log(seed=11, n_rows=50), path_a)
        write_event_log(sample_event_log(seed=11, n_rows=50), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        with open(path_a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["visitor_id", "event", "item_sku", "server_ts"]
        assert len(rows) == 51
        events = {r[1] for r in rows[1:]}
        assert events <= set(EVENT_TYPES)
        stamps = [int(r[3]) for r in rows[1:]]
        assert stamps == sorted(stamps)
