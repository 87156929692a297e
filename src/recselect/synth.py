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
from typing import Iterable

import numpy as np

from .data import Dataset, Interaction

PLANTED_NAME = "planted_two_population"


def _assemble(name: str, rows: Iterable[tuple[str, str, float]]) -> Dataset:
    """Attach sequential timestamps in row order."""
    interactions = tuple(
        Interaction(user, item, rating, ts) for ts, (user, item, rating) in enumerate(rows)
    )
    return Dataset(name, interactions)


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
    rng = np.random.default_rng(seed)
    head = [f"h{i:03d}" for i in range(head_items)]
    weights = np.arange(head_items + 5, 5, -1, dtype=np.float64)
    head_probs = weights / weights.sum()
    cluster_items = [
        [f"c{c:02d}_{j:02d}" for j in range(cluster_size)] for c in range(clusters)
    ]

    rows: list[tuple[str, str, float]] = []
    for u in range(users_per_group):
        user = f"main{u:04d}"
        heads = rng.choice(head_items, size=4, replace=False, p=head_probs)
        for j in range(12):
            rows.append((user, f"junk_{u:04d}_{j:02d}", 1.0))
        # One trained head, then the three held-out heads (most recent).
        for h in heads:
            rows.append((user, head[int(h)], 1.0))

    users_per_cluster = max(1, users_per_group // clusters)
    for u in range(users_per_group):
        user = f"niche{u:04d}"
        cluster = (u // users_per_cluster) % clusters
        chosen = rng.permutation(cluster_size)[:11]
        for j in chosen:
            rows.append((user, cluster_items[cluster][int(j)], 1.0))

    return _assemble(PLANTED_NAME, rows)


def popularity_skewed(seed: int = 7, n_users: int = 80, n_items: int = 60, per_user: int = 15) -> Dataset:
    """Zipf-weighted item choice with light explicit ratings."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_items + 1)
    probs = weights / weights.sum()
    rows = []
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user, replace=False, p=probs)
        for i in items:
            rows.append((f"u{u:04d}", f"i{int(i):04d}", float(rng.integers(1, 6))))
    return _assemble("popularity_skewed", rows)


def neighborhood_clustered(
    seed: int = 8, clusters: int = 8, users_per_cluster: int = 10, cluster_size: int = 14, per_user: int = 11
) -> Dataset:
    """Users draw almost exclusively from one item cluster."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(clusters):
        for u in range(users_per_cluster):
            user = f"u{c:02d}_{u:02d}"
            chosen = rng.permutation(cluster_size)[:per_user]
            for j in chosen:
                rows.append((user, f"c{c:02d}_{int(j):02d}", 1.0))
    return _assemble("neighborhood_clustered", rows)


def uniform_sparse(seed: int = 9, n_users: int = 80, n_items: int = 120, per_user: int = 12) -> Dataset:
    """Uniform item choice; no exploitable structure."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user, replace=False)
        for i in items:
            rows.append((f"u{u:04d}", f"i{int(i):04d}", 1.0))
    return _assemble("uniform_sparse", rows)


PROBE_GENERATORS = {
    "popularity_skewed": popularity_skewed,
    "neighborhood_clustered": neighborhood_clustered,
    "uniform_sparse": uniform_sparse,
}


EVENT_TYPES = ("view", "addtocart", "transaction")


def write_sample_event_log(path: str | os.PathLike, seed: int = 11, n_rows: int = 600) -> None:
    """A small retail-style raw event log for exercising ingestion."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["visitor_id", "event", "item_sku", "server_ts"])
        for row in range(n_rows):
            visitor = f"v{int(rng.integers(40)):03d}"
            sku = f"sku{int(rng.integers(50)):03d}"
            event = EVENT_TYPES[int(rng.choice(3, p=[0.8, 0.15, 0.05]))]
            writer.writerow([visitor, event, sku, 1_600_000_000 + row * 17])
