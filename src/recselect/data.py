"""Interaction datasets: ingestion, cleaning, filtering, and temporal splitting.

The canonical on-disk form is a CSV with header ``user,item,rating,timestamp``.
Raw event logs with arbitrary column names and categorical event types are
normalized into that form by :func:`ingest_raw`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyDatasetError, RowParseError, SchemaError

CANONICAL_COLUMNS = ("user", "item", "rating", "timestamp")
DEDUP_MODES = ("mean", "sum")


@dataclass(frozen=True)
class Interaction:
    """One (user, item) event after normalization."""

    user: str
    item: str
    rating: float
    timestamp: int


@dataclass
class Dataset:
    """An ordered interaction log plus dense id maps.

    Dense indices are assigned by first appearance in ``interactions``, so two
    datasets with equal interaction sequences have equal id maps.
    """

    name: str
    interactions: tuple[Interaction, ...]
    user_ids: list[str] = field(init=False, compare=False, repr=False)
    item_ids: list[str] = field(init=False, compare=False, repr=False)
    user_index: dict[str, int] = field(init=False, compare=False, repr=False)
    item_index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        users: dict[str, int] = {}
        items: dict[str, int] = {}
        for it in self.interactions:
            if it.user not in users:
                users[it.user] = len(users)
            if it.item not in items:
                items[it.item] = len(items)
        self.user_index = users
        self.item_index = items
        self.user_ids = list(users)
        self.item_ids = list(items)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def by_user(self) -> dict[str, list[Interaction]]:
        """Group interactions per user, preserving log order within each user."""
        grouped: dict[str, list[Interaction]] = {u: [] for u in self.user_ids}
        for it in self.interactions:
            grouped[it.user].append(it)
        return grouped


@dataclass(frozen=True)
class SplitPair:
    """Per-user temporal train/test partition of one dataset."""

    train: Dataset
    test: Dataset
    test_fraction: float


@dataclass(frozen=True)
class DatasetStats:
    users: int
    items: int
    interactions: int
    sparsity: float

    def as_dict(self) -> dict:
        return {
            "users": self.users,
            "items": self.items,
            "interactions": self.interactions,
            "sparsity": self.sparsity,
        }

    @classmethod
    def from_counts(cls, users: int, items: int, interactions: int) -> "DatasetStats":
        if users < 1 or items < 1 or interactions < 1:
            raise EmptyDatasetError("counts must be positive")
        return cls(users, items, interactions, 1.0 - interactions / (users * items))


@dataclass
class IngestConfig:
    """Column mapping and normalization rules for one raw event log."""

    name: str
    user_col: str
    item_col: str
    rating_col: str | None = None
    timestamp_col: str | None = None
    event_weights: dict[str, float] | None = None
    dedup: str = "sum"

    def __post_init__(self):
        if self.dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}, got {self.dedup!r}")
        if self.event_weights is not None:
            if self.rating_col is None:
                raise ValueError("event_weights need a rating_col naming the event column they map")
            if not self.event_weights:
                raise ValueError("event_weights must not be empty when given")
            for event, weight in self.event_weights.items():
                if not (math.isfinite(weight) and weight > 0):
                    raise ValueError(f"event weight for {event!r} must be finite and > 0")


def _parse_rating(raw: str, weights: Mapping[str, float] | None, row_index: int) -> float:
    if weights is not None:
        if raw in weights:
            return float(weights[raw])
        raise RowParseError(row_index, f"event type {raw!r} has no weight mapping")
    try:
        value = float(raw)
    except ValueError:
        raise RowParseError(row_index, f"rating {raw!r} is not numeric") from None
    if not (math.isfinite(value) and value > 0):
        raise RowParseError(row_index, f"rating {value!r} is not finite and positive")
    return value


def _parse_timestamp(raw: str, row_index: int) -> int:
    try:
        return int(float(raw))
    except ValueError:
        raise RowParseError(row_index, f"timestamp {raw!r} is not numeric") from None


def ingest_raw(rows: Iterable[Mapping[str, str]] | str | os.PathLike, config: IngestConfig) -> Dataset:
    """Normalize a raw event log into a :class:`Dataset`.

    ``rows`` is either a path to a headered CSV file or an iterable of dict
    rows. Ratings come from the configured column (via the event-weight map
    when one is given) and default to 1.0 when no rating column is configured.
    Rows without usable timestamps receive sequential integers in file order.
    Duplicate (user, item) pairs are aggregated per ``config.dedup`` ("mean" or
    "sum" of ratings), keeping the timestamp of the latest occurrence; output
    order is first appearance of each pair.
    """
    if isinstance(rows, (str, os.PathLike)):
        with open(rows, newline="", encoding="utf-8") as fh:
            return ingest_raw(list(csv.DictReader(fh)), config)

    acc: dict[tuple[str, str], list] = {}  # (user, item) -> [sum, count, ts, last_pos]
    required = [config.user_col, config.item_col]
    if config.rating_col is not None:
        required.append(config.rating_col)
    if config.timestamp_col is not None:
        required.append(config.timestamp_col)

    n_rows = 0
    for row_index, row in enumerate(rows):
        n_rows += 1
        for col in required:
            if col not in row:
                raise SchemaError(f"missing column {col!r} (first seen at row {row_index})")
        user = str(row[config.user_col]).strip()
        item = str(row[config.item_col]).strip()
        if not user or not item:
            raise RowParseError(row_index, "empty user or item id")
        if config.rating_col is None:
            rating = 1.0
        else:
            rating = _parse_rating(str(row[config.rating_col]).strip(), config.event_weights, row_index)
        if config.timestamp_col is None or not str(row[config.timestamp_col]).strip():
            timestamp = row_index
        else:
            timestamp = _parse_timestamp(str(row[config.timestamp_col]).strip(), row_index)

        key = (user, item)
        if key not in acc:
            acc[key] = [rating, 1, timestamp, row_index]
        else:
            slot = acc[key]
            slot[0] += rating
            slot[1] += 1
            # Latest timestamp wins; equal timestamps resolve to the later row.
            if timestamp >= slot[2]:
                slot[2] = timestamp
            slot[3] = row_index

    if n_rows == 0 or not acc:
        raise EmptyDatasetError(f"no interactions ingested for dataset {config.name!r}")

    interactions = []
    for (user, item), (total, count, ts, _) in acc.items():
        rating = total / count if config.dedup == "mean" else total
        interactions.append(Interaction(user, item, rating, ts))
    return Dataset(config.name, tuple(interactions))


def filter_min_interactions(dataset: Dataset, min_interactions: int = 10) -> Dataset:
    """Drop users with fewer than ``min_interactions`` interactions.

    Applied to users only, once, before splitting. Items that lose all their
    interactions disappear from the rebuilt id maps.
    """
    if min_interactions < 1:
        raise ValueError("min_interactions must be >= 1")
    counts: dict[str, int] = {}
    for it in dataset.interactions:
        counts[it.user] = counts.get(it.user, 0) + 1
    kept = tuple(it for it in dataset.interactions if counts[it.user] >= min_interactions)
    if not kept:
        raise EmptyDatasetError(
            f"no users with >= {min_interactions} interactions in dataset {dataset.name!r}"
        )
    return Dataset(dataset.name, kept)


def temporal_split_per_user(dataset: Dataset, test_fraction: float = 0.2) -> SplitPair:
    """Per-user temporal holdout: the most recent interactions become test.

    For a user with n interactions, ``n_test = max(1, floor(test_fraction*n))``
    go to test; ordering within a user is by timestamp with log order breaking
    ties, so re-running on the same dataset reproduces the same split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    positions: dict[str, list[int]] = {}
    for pos, it in enumerate(dataset.interactions):
        positions.setdefault(it.user, []).append(pos)
    for user, user_positions in positions.items():
        if len(user_positions) < 2:
            raise ValueError(f"user {user!r} has fewer than 2 interactions; cannot split")

    test_positions: set[int] = set()
    for user_positions in positions.values():
        order = sorted(user_positions, key=lambda p: (dataset.interactions[p].timestamp, p))
        n_test = max(1, math.floor(test_fraction * len(order)))
        test_positions.update(order[len(order) - n_test:])

    train = tuple(it for pos, it in enumerate(dataset.interactions) if pos not in test_positions)
    test = tuple(it for pos, it in enumerate(dataset.interactions) if pos in test_positions)
    return SplitPair(
        train=Dataset(dataset.name, train),
        test=Dataset(dataset.name, test),
        test_fraction=test_fraction,
    )


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """User/item/interaction counts and sparsity = 1 - |log| / (|U|*|I|)."""
    n = len(dataset.interactions)
    if n == 0:
        raise EmptyDatasetError("cannot compute stats of an empty dataset")
    return DatasetStats.from_counts(dataset.n_users, dataset.n_items, n)


def sample_users(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep a seeded random subset of ``max(1, round(fraction * n_users))`` users."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    n_keep = max(1, int(round(fraction * dataset.n_users)))
    keep = set(rng.permutation(dataset.n_users)[:n_keep].tolist())
    kept_users = {u for u, idx in dataset.user_index.items() if idx in keep}
    interactions = tuple(it for it in dataset.interactions if it.user in kept_users)
    return Dataset(dataset.name, interactions)


def write_interactions_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write the canonical ``user,item,rating,timestamp`` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for it in dataset.interactions:
            writer.writerow([it.user, it.item, repr(it.rating), it.timestamp])


@contextlib.contextmanager
def open_table(path: str | os.PathLike):
    """A csv reader over ``path``; bytes that are not UTF-8, or a line the csv module
    rejects (a NUL byte before Python 3.11), are a SchemaError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: {exc}") from exc


def read_interactions_csv(path: str | os.PathLike, name: str | None = None) -> Dataset:
    """Read a canonical CSV produced by :func:`write_interactions_csv`."""
    with open_table(path) as reader:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CANONICAL_COLUMNS:
            raise SchemaError(f"expected header {','.join(CANONICAL_COLUMNS)!r} in {path}")
        interactions = []
        for row_index, row in enumerate(reader):
            if len(row) != 4:
                raise RowParseError(row_index, f"expected 4 fields, got {len(row)}")
            user, item, rating_raw, ts_raw = (f.strip() for f in row)
            if not user or not item:
                raise RowParseError(row_index, "empty user or item id")
            rating = _parse_rating(rating_raw, None, row_index)
            interactions.append(Interaction(user, item, rating, _parse_timestamp(ts_raw, row_index)))
    if not interactions:
        raise EmptyDatasetError(f"no interactions in {path}")
    if name is None:
        name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(name, tuple(interactions))


def read_header(path: str | os.PathLike, reader, first: str) -> list[str]:
    """The header row of a csv reader; a SchemaError naming ``path`` unless it starts with
    ``first`` and names each column once."""
    header = next(reader, [])
    if not header or header[0] != first:
        found = repr(header[0]) if header else "an empty file"
        raise SchemaError(f"{path}: expected {first!r} as the first header column, found {found}")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise SchemaError(f"{path}: the header repeats column {repeated[0]!r}")
    return header


def read_id_rows(
    path: str | os.PathLike, reader, width: int, n_numeric: int | None = None, kind: str = "user"
) -> tuple[list[str], np.ndarray, list[tuple[str, ...]]]:
    """The ``id, value, ...`` rows left in a csv reader, validated.

    Every row must have ``width`` fields (the header's) and a ``kind`` id not
    seen before; the ``n_numeric`` fields after the id (all of them by
    default) must be finite numbers, and at least one row must follow the
    header. Anything else is a SchemaError naming the file and, for a bad row,
    the line. Returns the ids, the numbers as a (rows, n_numeric) array and
    each row's remaining fields as text.
    """
    n_numeric = width - 1 if n_numeric is None else n_numeric
    ids, rows, texts, seen = [], [], [], set()
    for line, row in enumerate(reader, start=2):
        if len(row) != width:
            raise SchemaError(f"{path}: line {line} has {len(row)} fields, the header has {width}")
        if row[0] in seen:
            raise SchemaError(f"{path}: line {line} repeats {kind} {row[0]!r}")
        try:
            values = [float(v) for v in row[1:1 + n_numeric]]
        except ValueError as exc:
            raise SchemaError(f"{path}: line {line} ({kind} {row[0]!r}): {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise SchemaError(f"{path}: line {line} ({kind} {row[0]!r}) has a non-finite value")
        seen.add(row[0])
        ids.append(row[0])
        rows.append(values)
        texts.append(tuple(row[1 + n_numeric:]))
    if not ids:
        raise SchemaError(f"{path}: no {kind} rows after the header")
    return ids, np.asarray(rows), texts


def write_json(obj, path: str | os.PathLike) -> None:
    """Write ``obj`` as sorted, two-space-indented JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
