"""Logs of user-item interactions as columns: ingestion, cleaning, filtering, and temporal splitting.

A :class:`Dataset` holds a log as aligned arrays, one entry per interaction
in log order; filtering, user sampling and the temporal split each keep a
row subset with :meth:`Dataset.select`. The canonical on-disk form is a CSV
with header ``user,item,rating,timestamp`` and one row per (user, item) pair.
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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import is_number
from .errors import EmptyDatasetError, RowParseError, SchemaError

CANONICAL_COLUMNS = ("user", "item", "rating", "timestamp")
DEDUP_MODES = ("mean", "sum")


def _code(ids: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ids in order of first appearance, and each id's position among them."""
    index: dict[str, int] = {}
    codes = np.fromiter((index.setdefault(i, len(index)) for i in ids), dtype=np.int64)
    return list(index), codes


@dataclass(frozen=True, eq=False)
class Dataset:
    """An interaction log as aligned columns in log order.

    ``users`` and ``items`` index ``user_ids`` and ``item_ids``, which list
    the ids in order of first appearance, so equal columns give equal id lists.
    """

    name: str
    user_ids: list[str]
    item_ids: list[str]
    users: np.ndarray = field(repr=False)  # int64 codes
    items: np.ndarray = field(repr=False)  # int64 codes
    ratings: np.ndarray = field(repr=False)  # float64
    timestamps: np.ndarray = field(repr=False)  # int64

    @classmethod
    def from_log(cls, name: str, users: Sequence[str], items: Sequence[str], ratings, timestamps) -> "Dataset":
        """The log of the given id sequences, ratings and timestamps, ids coded by first appearance."""
        user_ids, user_codes = _code(users)
        item_ids, item_codes = _code(items)
        ratings = np.asarray(ratings, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if not user_codes.size == item_codes.size == ratings.size == timestamps.size:
            raise ValueError("users, items, ratings and timestamps must have one entry per interaction")
        return cls(name, user_ids, item_ids, user_codes, item_codes, ratings, timestamps)

    def select(self, mask: np.ndarray) -> "Dataset":
        """The rows where ``mask`` holds, in log order, with their ids coded again."""
        return Dataset.from_log(self.name, [self.user_ids[u] for u in self.users[mask].tolist()],
                                [self.item_ids[i] for i in self.items[mask].tolist()], self.ratings[mask],
                                self.timestamps[mask])

    def __len__(self) -> int:
        return self.users.size

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)


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
                if not (is_number(weight) and weight > 0):
                    raise ValueError(f"event weight for {event!r} must be a finite number > 0, found {weight!r}")


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
        value = int(raw)  # exact at any size, where float() rounds clocks above 2**53
    except ValueError:
        try:
            number = float(raw)
        except ValueError:
            raise RowParseError(row_index, f"timestamp {raw!r} is not numeric") from None
        value = int(number) if math.isfinite(number) else None
    if value is None or not -2**63 <= value < 2**63:
        raise RowParseError(row_index, f"timestamp {raw!r} is not a finite number within the int64 range")
    return value


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

    acc: dict[tuple[str, str], list] = {}  # (user, item) -> [sum, count, ts]
    required = [config.user_col, config.item_col]
    if config.rating_col is not None:
        required.append(config.rating_col)
    if config.timestamp_col is not None:
        required.append(config.timestamp_col)

    for row_index, row in enumerate(rows):
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
            acc[key] = [rating, 1, timestamp]
        else:
            slot = acc[key]
            slot[0] += rating
            slot[1] += 1
            slot[2] = max(slot[2], timestamp)  # the latest timestamp wins

    if not acc:
        raise EmptyDatasetError(f"no interactions ingested for dataset {config.name!r}")

    mean = config.dedup == "mean"
    return Dataset.from_log(config.name, [user for user, _ in acc], [item for _, item in acc],
                            [total / count if mean else total for total, count, _ in acc.values()],
                            [ts for _, _, ts in acc.values()])


def filter_min_interactions(dataset: Dataset, min_interactions: int = 10) -> Dataset:
    """Drop users with fewer than ``min_interactions`` interactions.

    Applied to users only, once, before splitting. Items that lose all their
    interactions disappear from the rebuilt id lists.
    """
    if min_interactions < 1:
        raise ValueError("min_interactions must be >= 1")
    kept = np.bincount(dataset.users, minlength=dataset.n_users)[dataset.users] >= min_interactions
    if not kept.any():
        raise EmptyDatasetError(
            f"no users with >= {min_interactions} interactions in dataset {dataset.name!r}"
        )
    return dataset.select(kept)


def temporal_split_per_user(dataset: Dataset, test_fraction: float = 0.2) -> SplitPair:
    """Per-user temporal holdout: the most recent interactions become test.

    For a user with n interactions, ``n_test = max(1, floor(test_fraction*n))``
    go to test; ordering within a user is by timestamp with log order breaking
    ties, so re-running on the same dataset reproduces the same split. A user
    with one interaction would have an empty training part: EmptyDatasetError.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    counts = np.bincount(dataset.users, minlength=dataset.n_users)
    if (counts < 2).any():
        user = dataset.user_ids[int(np.argmax(counts < 2))]
        raise EmptyDatasetError(
            f"user {user!r} of dataset {dataset.name!r} has 1 interaction, so its training part "
            "would be empty; every user needs at least 2 to split"
        )
    # Each user's rows in a run, by timestamp; lexsort is stable, so log order breaks ties.
    order = np.lexsort((dataset.timestamps, dataset.users))
    n_test = np.maximum(1, np.floor(test_fraction * counts).astype(np.int64))
    first_test = np.cumsum(counts) - n_test  # each user's first test position in ``order``
    test = np.zeros(len(dataset), dtype=bool)
    test[order] = np.arange(len(dataset)) >= first_test[dataset.users[order]]
    return SplitPair(train=dataset.select(~test), test=dataset.select(test), test_fraction=test_fraction)


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """User/item/interaction counts and sparsity = 1 - |log| / (|U|*|I|)."""
    if not len(dataset):
        raise EmptyDatasetError("cannot compute stats of an empty dataset")
    return DatasetStats.from_counts(dataset.n_users, dataset.n_items, len(dataset))


def sample_users(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep a seeded random subset of ``max(1, round(fraction * n_users))`` users."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    n_keep = max(1, int(round(fraction * dataset.n_users)))
    keep = np.zeros(dataset.n_users, dtype=bool)
    keep[rng.permutation(dataset.n_users)[:n_keep]] = True
    return dataset.select(keep[dataset.users])


def write_interactions_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write the canonical ``user,item,rating,timestamp`` CSV."""
    user_ids, item_ids = dataset.user_ids, dataset.item_ids
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        # tolist() gives Python floats, whose repr is the shortest round-trip text.
        writer.writerows([user_ids[u], item_ids[i], repr(r), t] for u, i, r, t in zip(
            dataset.users.tolist(), dataset.items.tolist(), dataset.ratings.tolist(), dataset.timestamps.tolist()))


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
    """Read a canonical CSV produced by :func:`write_interactions_csv`.

    A repeated (user, item) pair, which the split could put in training and in
    test alike, is a RowParseError naming both rows.
    """
    with open_table(path) as reader:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CANONICAL_COLUMNS:
            raise SchemaError(f"expected header {','.join(CANONICAL_COLUMNS)!r} in {path}")
        users, items, ratings, timestamps = [], [], [], []
        first_row: dict[tuple[str, str], int] = {}
        for row_index, row in enumerate(reader):
            if len(row) != 4:
                raise RowParseError(row_index, f"expected 4 fields, got {len(row)}")
            user, item, rating_raw, ts_raw = (f.strip() for f in row)
            if not user or not item:
                raise RowParseError(row_index, "empty user or item id")
            earlier = first_row.setdefault((user, item), row_index)
            if earlier != row_index:
                raise RowParseError(row_index, f"user {user!r} and item {item!r} repeat row {earlier}")
            users.append(user)
            items.append(item)
            ratings.append(_parse_rating(rating_raw, None, row_index))
            timestamps.append(_parse_timestamp(ts_raw, row_index))
    if not users:
        raise EmptyDatasetError(f"no interactions in {path}")
    if name is None:
        name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset.from_log(name, users, items, ratings, timestamps)


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
