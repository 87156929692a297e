"""Synthetic interaction datasets with known structure.

The planted two-population benchmark builds one population of mainstream
users, whose held-out items are globally popular head items (a popularity
counter wins), and one population of niche users locked to small item
clusters, whose held-out items co-occur only within their cluster (item-based
kNN wins). The populations are separable from training history by the average
popularity of the items a user touched. Probe generators produce small
datasets with one dominant structure each, for performance landmarking.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .config import expect
from .data import Dataset
from .errors import ConfigError

PLANTED_NAME = "planted_two_population"


def _log(name: str, users: list[str], items: list[str], ratings=None) -> Dataset:
    """The log of the given rows, rated 1.0 unless ``ratings`` are given, stamped with the row sequence."""
    if not users:
        raise ConfigError(f"the {name} parameters generate no interactions")
    return Dataset.from_log(name, users, items, np.ones(len(users)) if ratings is None else ratings,
                            np.arange(len(users)))


def planted_two_population(
    seed: int = 2024,
    users_per_group: int = 100,
    head_items: int = 20,
    clusters: int = 20,
    cluster_size: int = 15,
) -> Dataset:
    """Two engineered user populations with different best algorithms.

    Mainstream users train on user-unique junk plus exactly one head item and
    are tested on three further head items drawn by global head weight. No
    user ever trains two head items, so item co-occurrence carries no signal
    about heads and a popularity counter is the only algorithm that ranks
    them; head training counts (one weight-biased draw per user) reproduce
    the weight order. Niche users train inside one small item cluster and are
    tested on held-out cluster items, which co-occur strongly within the
    cluster but stay below the top heads' training counts, so popularity
    misses them while item-based kNN recovers them. The populations separate
    on training features alone, in particular the average training popularity
    of interacted items (junk has count 1, cluster items around three).
    Designed for the default 0.2 temporal test fraction; every rating is 1.0
    and timestamps are the global row sequence.
    """
    # Each mainstream user draws 4 distinct heads, and each niche user 11 items of one cluster.
    for name, value, low in (("users_per_group", users_per_group, 1), ("head_items", head_items, 4),
                             ("clusters", clusters, 1), ("cluster_size", cluster_size, 11)):
        expect(f"{PLANTED_NAME} parameter {name!r}", value, lambda v: v >= low, f">= {low}")
    rng = np.random.default_rng(seed)
    head = [f"h{i:03d}" for i in range(head_items)]
    weights = np.arange(head_items + 5, 5, -1, dtype=np.float64)
    head_probs = weights / weights.sum()
    cluster_items = [
        [f"c{c:02d}_{j:02d}" for j in range(cluster_size)] for c in range(clusters)
    ]

    users: list[str] = []
    items: list[str] = []
    for u in range(users_per_group):
        heads = rng.choice(head_items, size=4, replace=False, p=head_probs)
        # Twelve junk items, one trained head, then the three held-out heads (most recent).
        items += [f"junk_{u:04d}_{j:02d}" for j in range(12)] + [head[int(h)] for h in heads]
        users += [f"main{u:04d}"] * 16

    users_per_cluster = max(1, users_per_group // clusters)
    for u in range(users_per_group):
        cluster = (u // users_per_cluster) % clusters
        chosen = rng.permutation(cluster_size)[:11]
        items += [cluster_items[cluster][int(j)] for j in chosen]
        users += [f"niche{u:04d}"] * 11

    return _log(PLANTED_NAME, users, items)


def popularity_skewed(seed: int = 7, n_users: int = 80, n_items: int = 60, per_user: int = 15) -> Dataset:
    """Zipf-weighted item choice with light explicit ratings."""
    expect("popularity_skewed parameter 'per_user'", per_user, lambda v: v <= n_items, f"<= n_items = {n_items}")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_items + 1)
    probs = weights / weights.sum()
    users, items, ratings = [], [], []
    for u in range(n_users):
        chosen = rng.choice(n_items, size=per_user, replace=False, p=probs)
        users += [f"u{u:04d}"] * per_user
        items += [f"i{int(i):04d}" for i in chosen]
        ratings += [float(rng.integers(1, 6)) for _ in chosen]  # one draw per item, after the choice
    return _log("popularity_skewed", users, items, ratings)


def neighborhood_clustered(
    seed: int = 8, clusters: int = 8, users_per_cluster: int = 10, cluster_size: int = 14, per_user: int = 11
) -> Dataset:
    """Users draw almost exclusively from one item cluster."""
    rng = np.random.default_rng(seed)
    users, items = [], []
    for c in range(clusters):
        for u in range(users_per_cluster):
            chosen = rng.permutation(cluster_size)[:per_user]
            users += [f"u{c:02d}_{u:02d}"] * chosen.size
            items += [f"c{c:02d}_{int(j):02d}" for j in chosen]
    return _log("neighborhood_clustered", users, items)


def uniform_sparse(seed: int = 9, n_users: int = 80, n_items: int = 120, per_user: int = 12) -> Dataset:
    """Uniform item choice; no exploitable structure."""
    expect("uniform_sparse parameter 'per_user'", per_user, lambda v: v <= n_items, f"<= n_items = {n_items}")
    rng = np.random.default_rng(seed)
    users, items = [], []
    for u in range(n_users):
        chosen = rng.choice(n_items, size=per_user, replace=False)
        users += [f"u{u:04d}"] * per_user
        items += [f"i{int(i):04d}" for i in chosen]
    return _log("uniform_sparse", users, items)


PROBE_GENERATORS = {
    "popularity_skewed": popularity_skewed,
    "neighborhood_clustered": neighborhood_clustered,
    "uniform_sparse": uniform_sparse,
}


EVENT_TYPES = ("view", "addtocart", "transaction")
EVENT_LOG_COLUMNS = ("visitor_id", "event", "item_sku", "server_ts")


def sample_event_log(seed: int = 11, n_rows: int = 600) -> list[list]:
    """The rows of a small retail-style raw event log for exercising ingestion, in ``EVENT_LOG_COLUMNS`` order."""
    expect("event_log parameter 'n_rows'", n_rows, lambda n: n >= 1, ">= 1")
    rng = np.random.default_rng(seed)
    rows = []
    for row in range(n_rows):
        visitor = f"v{int(rng.integers(40)):03d}"
        sku = f"sku{int(rng.integers(50)):03d}"
        event = EVENT_TYPES[int(rng.choice(3, p=[0.8, 0.15, 0.05]))]
        rows.append([visitor, event, sku, 1_600_000_000 + row * 17])
    return rows


def write_event_log(rows: list[list], path: str | os.PathLike) -> None:
    """Write event log rows under an ``EVENT_LOG_COLUMNS`` header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_COLUMNS)
        writer.writerows(rows)

