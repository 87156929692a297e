"""Per-user meta-features computed from training-side history only.

Fifteen features per user: interaction counts, rating statistics (population
standard deviation; Shannon entropy, base 2, over distinct rating values),
timestamp statistics on the raw timestamp scale, and statistics of the
training popularity of the items the user interacted with. Nothing here may
see test interactions; the popularity table is likewise train-only.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, open_table, read_header, read_id_rows
from .errors import SchemaError

USER_FEATURE_NAMES = (
    "num_interactions",
    "num_unique_items",
    "avg_rating",
    "std_rating",
    "min_rating",
    "max_rating",
    "median_rating",
    "rating_entropy",
    "history_duration_seconds",
    "first_interaction_ts",
    "last_interaction_ts",
    "avg_time_diff_interactions",
    "avg_item_pop_interacted",
    "median_item_pop_interacted",
    "std_item_pop_interacted",
)

# Features expressed on the raw timestamp scale; reports flag these because
# their magnitudes are dataset-clock specific.
RAW_TIMESCALE_FEATURES = (
    "history_duration_seconds",
    "first_interaction_ts",
    "last_interaction_ts",
    "avg_time_diff_interactions",
)


def build_popularity_table(train: Dataset) -> dict[str, int]:
    """Training interaction count per item id."""
    counts: dict[str, int] = {}
    for it in train.interactions:
        counts[it.item] = counts.get(it.item, 0) + 1
    return counts


def rating_entropy(ratings: np.ndarray) -> float:
    """Shannon entropy (bits) of the empirical distribution over distinct values."""
    _, counts = np.unique(ratings, return_counts=True)
    probs = counts / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def compute_user_features(
    interactions: list,
    popularity: dict[str, int],
) -> np.ndarray:
    """Feature vector for one user's training interactions (log order)."""
    if not interactions:
        raise ValueError("cannot compute features for an empty history")
    ratings = np.asarray([it.rating for it in interactions], dtype=np.float64)
    timestamps = np.sort(np.asarray([it.timestamp for it in interactions], dtype=np.float64))
    pops = np.asarray([popularity.get(it.item, 0) for it in interactions], dtype=np.float64)

    diffs = np.diff(timestamps)
    return np.array(
        [
            float(len(interactions)),
            float(len({it.item for it in interactions})),
            float(ratings.mean()),
            float(ratings.std()),
            float(ratings.min()),
            float(ratings.max()),
            float(np.median(ratings)),
            rating_entropy(ratings),
            float(timestamps[-1] - timestamps[0]),
            float(timestamps[0]),
            float(timestamps[-1]),
            float(diffs.mean()) if diffs.size else 0.0,
            float(pops.mean()),
            float(np.median(pops)),
            float(pops.std()),
        ]
    )


@dataclass
class UserFeatureTable:
    """Users x 15 matrix in training-dataset user order."""

    users: list[str]
    names: tuple[str, ...]
    matrix: np.ndarray

    def row(self, user: str) -> np.ndarray:
        return self.matrix[self.users.index(user)]

    def subset(self, users) -> "UserFeatureTable":
        pos = {u: i for i, u in enumerate(self.users)}
        rows = [pos[u] for u in users]
        return UserFeatureTable(list(users), self.names, self.matrix[rows])

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user"] + list(self.names))
            for i, user in enumerate(self.users):
                writer.writerow([user] + [repr(float(v)) for v in self.matrix[i]])

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "UserFeatureTable":
        """Read a ``to_csv`` file.

        A wrong header, no rows, ragged rows, repeated users and NaN/inf are SchemaErrors.
        """
        with open_table(path) as reader:
            header = read_header(path, reader, "user")
            if tuple(header[1:]) != USER_FEATURE_NAMES:
                raise SchemaError(f"unexpected user-feature header in {path}")
            users, rows, _ = read_id_rows(path, reader, len(header))
        return cls(users, USER_FEATURE_NAMES, rows)


def user_feature_table(train: Dataset) -> UserFeatureTable:
    """All users' features from the training split, with item popularity counted on it."""
    popularity = build_popularity_table(train)
    grouped = train.by_user()
    rows = [compute_user_features(grouped[user], popularity) for user in train.user_ids]
    matrix = np.vstack(rows) if rows else np.empty((0, len(USER_FEATURE_NAMES)))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("user features must be finite")
    return UserFeatureTable(list(train.user_ids), USER_FEATURE_NAMES, matrix)
