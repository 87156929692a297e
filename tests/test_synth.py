"""Structural guarantees of the synthetic benchmark and probe generators."""

import csv

import numpy as np
import pytest

from recselect.data import temporal_split_per_user
from recselect.synth import (
    EVENT_TYPES,
    PLANTED_NAME,
    PROBE_GENERATORS,
    neighborhood_clustered,
    planted_two_population,
    popularity_skewed,
    uniform_sparse,
    write_sample_event_log,
)
from recselect.user_features import build_popularity_table

from conftest import default_probes


@pytest.fixture(scope="module")
def ds():
    return planted_two_population()


class TestPlantedBenchmark:
    def test_population_sizes_and_histories(self, ds):
        assert ds.name == PLANTED_NAME
        by_user = ds.by_user()
        mains = [u for u in ds.user_ids if u.startswith("main")]
        niches = [u for u in ds.user_ids if u.startswith("niche")]
        assert len(mains) == len(niches) == 100
        assert all(len(by_user[u]) == 16 for u in mains)
        assert all(len(by_user[u]) == 11 for u in niches)

    def test_main_users_train_exactly_one_head(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        train_by_user = split.train.by_user()
        test_by_user = split.test.by_user()
        for user, history in train_by_user.items():
            if not user.startswith("main"):
                continue
            train_heads = [it.item for it in history if it.item.startswith("h")]
            test_heads = [it.item for it in test_by_user[user] if it.item.startswith("h")]
            assert len(train_heads) == 1
            assert len(test_heads) == 3

    def test_heads_never_co_occur_in_training(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        for history in split.train.by_user().values():
            heads = [it.item for it in history if it.item.startswith("h")]
            assert len(heads) <= 1

    def test_niche_users_stay_inside_one_cluster(self, ds):
        for user, history in ds.by_user().items():
            if not user.startswith("niche"):
                continue
            prefixes = {it.item.split("_")[0] for it in history}
            assert len(prefixes) == 1
            assert prefixes.pop().startswith("c")

    def test_niche_users_never_touch_heads_or_junk(self, ds):
        for user, history in ds.by_user().items():
            if user.startswith("niche"):
                assert all(it.item.startswith("c") for it in history)

    def test_populations_separate_on_train_popularity(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        pops = build_popularity_table(split.train)
        by_user = split.train.by_user()

        def avg_pop(user):
            return float(np.mean([pops[it.item] for it in by_user[user]]))

        main_pops = [avg_pop(u) for u in by_user if u.startswith("main")]
        niche_pops = [avg_pop(u) for u in by_user if u.startswith("niche")]
        assert max(main_pops) < min(niche_pops)

    def test_generation_is_seed_deterministic(self):
        a = planted_two_population(seed=3, users_per_group=10, clusters=5)
        b = planted_two_population(seed=3, users_per_group=10, clusters=5)
        c = planted_two_population(seed=4, users_per_group=10, clusters=5)
        assert a.interactions == b.interactions
        assert a.interactions != c.interactions

    def test_timestamps_are_the_row_sequence(self, ds):
        stamps = [it.timestamp for it in ds.interactions]
        assert stamps == list(range(len(stamps)))

    def test_head_training_counts_follow_weight_order(self, ds):
        split = temporal_split_per_user(ds, 0.2)
        pops = build_popularity_table(split.train)
        head_counts = [pops.get(f"h{i:03d}", 0) for i in range(20)]
        # Weighted sampling puts most single-head draws on the first few heads.
        assert sum(head_counts[:5]) > sum(head_counts[15:])


class TestProbes:
    def test_registry_and_default_bundle(self):
        assert set(PROBE_GENERATORS) == {
            "popularity_skewed", "neighborhood_clustered", "uniform_sparse",
        }
        probes = default_probes(seed=0)
        assert set(probes) == set(PROBE_GENERATORS)
        for name, ds in probes.items():
            assert ds.name == name
            assert len(ds.interactions) > 0

    def test_default_bundle_sub_seeds_differ(self):
        a = default_probes(seed=0)
        b = default_probes(seed=1)
        for name in a:
            assert a[name].interactions != b[name].interactions

    def test_popularity_skewed_concentrates_mass(self):
        ds = popularity_skewed()
        pops = sorted(build_popularity_table(ds).values(), reverse=True)
        assert pops[0] > 3 * pops[-1]

    def test_neighborhood_probe_users_stay_clustered(self):
        ds = neighborhood_clustered()
        for user, history in ds.by_user().items():
            assert len({it.item.split("_")[0] for it in history}) == 1
            assert len(history) == 11

    def test_uniform_probe_has_flat_ratings(self):
        ds = uniform_sparse()
        assert {it.rating for it in ds.interactions} == {1.0}
        assert all(len(h) == 12 for h in ds.by_user().values())

    def test_every_probe_supports_a_temporal_split(self):
        for ds in default_probes(seed=5).values():
            split = temporal_split_per_user(ds, 0.2)
            assert set(split.train.user_ids) == set(ds.user_ids)


class TestEventLog:
    def test_layout_and_determinism(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_sample_event_log(path_a, seed=11, n_rows=50)
        write_sample_event_log(path_b, seed=11, n_rows=50)
        assert path_a.read_bytes() == path_b.read_bytes()

        with open(path_a, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["visitor_id", "event", "item_sku", "server_ts"]
        assert len(rows) == 51
        events = {r[1] for r in rows[1:]}
        assert events <= set(EVENT_TYPES)
        stamps = [int(r[3]) for r in rows[1:]]
        assert stamps == sorted(stamps)
