"""Per-user ground truth: NDCG@k over a portfolio and the derived baselines.

The performance matrix holds one NDCG@k value per (user, algorithm). The
single best algorithm (SBA) is the best column mean; the virtual best
algorithm (VBA) is the mean of per-user row maxima; gap closed measures where
a selector's mean lands between the two.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from .data import Dataset, open_table, read_header, read_id_rows
from .errors import EmptyDatasetError
from .recommenders import RecommenderModel, TrainMatrix, top_k
from .recommenders.base import checked_scores

logger = logging.getLogger(__name__)


def ndcg_at_k(ranking: Sequence[str], relevant: AbstractSet[str], k: int = 10) -> float:
    """Binary-gain NDCG@k; the ideal DCG truncates at min(k, |relevant|)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must not be empty")
    dcg = 0.0
    for pos, item in enumerate(ranking[:k]):
        if item in relevant:
            dcg += _discount(pos)
    return dcg / _ideal_dcgs(min(k, len(relevant)))[-1]


def _discount(pos: int) -> float:
    return 1.0 / math.log2(pos + 2)


def _ideal_dcgs(n: int) -> np.ndarray:
    """The ideal DCG of 0 to ``n`` relevant items: the discounts summed in position order.

    ``cumsum`` adds sequentially, so each entry has the bits of a plain float loop.
    """
    return np.cumsum([0.0] + [_discount(pos) for pos in range(n)])


@dataclass
class PerformanceMatrix:
    """Users x algorithms NDCG values with id-addressed lookup."""

    users: list[str]
    algorithms: list[str]
    values: np.ndarray
    skipped_users: int = 0
    user_pos: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.users), len(self.algorithms)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.users)} users x {len(self.algorithms)} algorithms"
            )
        self.user_pos = {u: i for i, u in enumerate(self.users)}

    def lookup(self, user: str, algorithm: str) -> float:
        return float(self.values[self.user_pos[user], self.algorithms.index(algorithm)])

    def row(self, user: str) -> np.ndarray:
        return self.values[self.user_pos[user]]

    def column_means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user"] + self.algorithms)
            for i, user in enumerate(self.users):
                writer.writerow([user] + [f"{v:.10f}" for v in self.values[i]])

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "PerformanceMatrix":
        """Read a ``to_csv`` file.

        A wrong header, no rows, ragged rows, repeated users and NaN/inf are SchemaErrors.
        """
        with open_table(path) as reader:
            header = read_header(path, reader, "user")
            algorithms = header[1:]
            users, rows, _ = read_id_rows(path, reader, len(header))
        return cls(users, algorithms, rows)


# Score values per block of users, a bound on each block's memory: its (users,
# items) score matrix is 2 MB of float64 (51 users at 5,120 items), and with
# the arrays top_k derives from it an EASE block peaks at about 4.6 MB. The
# time of evaluate_portfolio at that size is flat from 16 to 204 users per
# block, so the value is no cache fit.
_BLOCK_VALUES = 2**18


@dataclass(frozen=True, eq=False)
class EvaluableUsers:
    """The test users a portfolio is scored on, laid out once for the user blocks of ``matrix``.

    ``rows`` are the users' rows of ``matrix`` and ``n_relevant`` the sizes of
    their relevant sets. ``seen`` and ``wanted`` are the positions ``user *
    n_items + item``, ``user`` counting in ``users``, of their training items
    and of their relevant items known to training, in user order.
    """

    users: list[str]
    skipped: int
    matrix: TrainMatrix = field(repr=False)
    rows: np.ndarray = field(repr=False)
    n_relevant: np.ndarray = field(repr=False)
    seen: np.ndarray = field(repr=False)
    wanted: np.ndarray = field(repr=False)


def evaluable_users(matrix: TrainMatrix, test: Dataset) -> EvaluableUsers:
    """The test users that are trainable and testable; the others are counted and logged.

    Users absent from the training matrix are skipped. A user's relevant set
    is the distinct items of its test rows, so it is never empty.
    """
    index = np.array([matrix.user_index.get(u, -1) for u in test.user_ids], dtype=np.int64)
    known, rows = index >= 0, index[index >= 0]
    users = [u for u, row in zip(test.user_ids, index.tolist()) if row >= 0]
    skipped = test.n_users - len(users)
    if skipped:
        logger.warning("skipped %d test user(s) absent from training", skipped)
    n = matrix.n_items
    seen = np.concatenate([np.zeros(0, np.int64)] + [matrix.seen[r] for r in rows])
    seen += np.repeat(np.arange(len(users)) * n, [matrix.seen[r].size for r in rows])
    pairs = np.unique(test.users * test.n_items + test.items)  # each user's distinct relevant items
    pair_users, pair_items = np.divmod(pairs, test.n_items)
    columns = np.array([matrix.item_index.get(i, -1) for i in test.item_ids], dtype=np.int64)[pair_items]
    position = np.cumsum(known) - 1  # each known test user's place in ``users``
    trained = known[pair_users] & (columns >= 0)
    wanted = np.sort(position[pair_users[trained]] * n + columns[trained])
    n_relevant = np.bincount(pair_users, minlength=test.n_users)[known]
    return EvaluableUsers(users, skipped, matrix, rows, n_relevant, seen, wanted)


def evaluate_portfolio(
    matrix: TrainMatrix,
    test: Dataset | EvaluableUsers,
    models: Mapping[str, RecommenderModel],
    k: int = 10,
) -> PerformanceMatrix:
    """NDCG@k of every model for every test user trainable and testable.

    ``test`` is a test split, or its ``evaluable_users(matrix, test)`` when
    several calls score the same split; one laid out for another matrix is a
    ValueError. The skipped users are recorded on the returned matrix.
    Each model scores blocks of ``_BLOCK_VALUES // n_items`` users with
    ``score_users``, which bounds the memory a block takes, and
    ``top_k`` leaves out each user's training items, scattered with the
    relevant ones from the layout into two masks reused by every block. Its
    snapped tie rule keeps a cell from depending on how the scores were
    summed (block size, BLAS kernel, EASE solve route). Each cell is
    ``ndcg_at_k`` of the user's list, bit for bit, as with per-user
    ``recommend_top_k`` calls: a block's DCGs add the same discounts in
    position order (a miss adds 0.0) and divide by the same ideal DCGs. A NaN
    or infinite score raises NonFiniteScoresError naming the algorithm and the
    first such user; no user left to score raises EmptyDatasetError.
    """
    if not models:
        raise ValueError("models mapping must not be empty")
    if isinstance(test, Dataset):
        test = evaluable_users(matrix, test)
    if test.matrix is not matrix:
        raise ValueError("the evaluable users were laid out for another training matrix")
    users = test.users
    if not users:
        raise EmptyDatasetError("no test users could be evaluated")

    algorithms = list(models)
    n_items = matrix.n_items
    ideal = _ideal_dcgs(min(k, int(test.n_relevant.max())))[np.minimum(test.n_relevant, k)]
    discounts = [_discount(pos) for pos in range(min(k, n_items))]  # top_k ranks at most n_items
    values = np.empty((len(users), len(algorithms)))
    step = max(1, _BLOCK_VALUES // n_items)
    masks = np.empty((2, min(step, len(users)), n_items), dtype=bool)  # a block's seen and relevant items
    for start in range(0, len(users), step):
        block = test.rows[start:start + step]
        rows = np.arange(block.size)
        masks[:] = False
        for flat, at in zip(masks.reshape(2, -1), (test.seen, test.wanted)):
            lo, hi = np.searchsorted(at, [start * n_items, (start + block.size) * n_items])  # one run per block
            flat[at[lo:hi] - start * n_items] = True
        exclude, wanted = masks[:, :block.size]
        for col, algo in enumerate(algorithms):
            ranked = top_k(checked_scores(models[algo], block, users[start:start + step]), k, exclude)
            hit = wanted[rows[:, None], ranked] & (ranked >= 0)  # a -1 pad would read the last item
            dcg = np.zeros(block.size)
            for pos in range(ranked.shape[1]):
                dcg += np.where(hit[:, pos], discounts[pos], 0.0)
            values[start:start + block.size, col] = dcg / ideal[start:start + block.size]
    return PerformanceMatrix(users, algorithms, values, skipped_users=test.skipped)


def single_best_algorithm(pm: PerformanceMatrix) -> tuple[str, float]:
    """Algorithm with the best column mean; ties go to the earlier column."""
    means = pm.column_means()
    best = int(np.argmax(means))
    return pm.algorithms[best], float(means[best])


def virtual_best_algorithm(pm: PerformanceMatrix) -> float:
    """Mean over users of the per-user best NDCG."""
    return float(pm.values.max(axis=1).mean())


def gap_closed(selector_mean: float, sba_mean: float, vba_mean: float) -> float:
    """Percentage of the SBA-to-VBA gap a selector's mean closes."""
    if vba_mean <= sba_mean:
        raise ValueError("gap is undefined when VBA does not exceed SBA")
    return 100.0 * (selector_mean - sba_mean) / (vba_mean - sba_mean)

