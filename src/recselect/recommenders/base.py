"""Shared training-matrix representation, SGD wavefronts and top-k recommendation.

Every algorithm trains from a :class:`TrainMatrix` and exposes a single
``score_users`` method returning a (users, items) matrix of finite scores;
ranking, seen-item exclusion, and tie handling live in :func:`top_k` so all
algorithms share them, and the SGD trainers share :func:`wavefronts`.

Tie rule: each score row is snapped to a relative grid,
``q = round(s / scale * 1e9)`` with ``scale`` the row's largest ``|s|``
(1 when that is zero or subnormal), and items rank by ``q`` descending, then
by ascending item index, one exact float64 key per item that also carries
the item's index: ``top_k`` partitions the keys in place and reads items and
exclusions back off them. Scores equal in exact arithmetic but differing in
their last bits (the same sum taken in another order, another BLAS kernel)
rank as the tie they are, so a ranking does not depend on the numeric route
that produced the scores.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..data import Dataset
from ..errors import ColdStartError, EmptyDatasetError, NonFiniteScoresError


@dataclass
class TrainMatrix:
    """Sparse user-item rating matrix with dense id maps and seen-item sets."""

    matrix: sp.csr_matrix
    user_ids: list[str]
    item_ids: list[str]
    user_index: dict[str, int]
    item_index: dict[str, int]
    seen: list[np.ndarray] = field(repr=False)  # sorted item indices per user
    item_counts: np.ndarray = field(repr=False)  # interactions per item

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def binarized(self) -> sp.csr_matrix:
        out = self.matrix.copy()
        out.data = np.ones_like(out.data)
        return out


def build_train_matrix(train: Dataset) -> TrainMatrix:
    """Build the CSR rating matrix from a training split."""
    if not len(train):
        raise EmptyDatasetError("cannot build a training matrix from an empty dataset")
    shape = (train.n_users, train.n_items)
    matrix = sp.csr_matrix((train.ratings, (train.users, train.items)), shape=shape)
    matrix.sum_duplicates()

    seen = np.split(matrix.indices.astype(np.int64), matrix.indptr[1:-1])  # canonical CSR: sorted, unique
    item_counts = np.bincount(train.items, minlength=shape[1])
    return TrainMatrix(
        matrix=matrix,
        user_ids=list(train.user_ids),
        item_ids=list(train.item_ids),
        user_index={u: i for i, u in enumerate(train.user_ids)},
        item_index={i: j for j, i in enumerate(train.item_ids)},
        seen=seen,
        item_counts=item_counts,
    )


def wavefronts(users: np.ndarray, items: np.ndarray, n_users: int, n_items: int) -> list[np.ndarray]:
    """Split a sequence of SGD samples into levels that can be applied at once.

    ``users`` is (n,) and ``items`` is (n, 1) or (n, 2) (any other width is a
    ValueError): the user and the distinct items each sample reads and writes,
    in the order a sequential loop visits them. A sample's level is one more
    than the highest level already given to its user or to any of its items.
    So two samples of one level share no user and no item, and a sample's
    level is above that of every earlier sample it shares one with. The result
    lists the sample positions of each level, levels in increasing order,
    positions ascending within a level. Updates of samples that share no user
    and no item commute exactly, so applying the levels in turn gives every
    sample's update the same state, bit for bit, as the sequential loop does.
    """
    if items.ndim != 2 or items.shape[1] not in (1, 2):
        raise ValueError(f"items must have shape (n, 1) or (n, 2), got {items.shape}")
    columns = items.T.tolist()  # one flat loop over (user, i, j); a one-item sample is (user, i, i)
    user_level = [0] * n_users
    item_level = [0] * n_items
    levels = []
    append = levels.append
    for u, i, j in zip(users.tolist(), columns[0], columns[-1]):
        level = user_level[u]
        if item_level[i] > level:
            level = item_level[i]
        if item_level[j] > level:
            level = item_level[j]
        level += 1
        user_level[u] = item_level[i] = item_level[j] = level
        append(level)
    levels = np.fromiter(levels, dtype=np.int64, count=len(levels))
    order = np.argsort(levels * levels.size + np.arange(levels.size))  # unique keys: by level, then position
    return np.split(order, np.cumsum(np.bincount(levels)[1:-1]))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for every row k, bit for bit.

    A stacked ``matmul`` of (1, f) by (f, 1) runs the same dot kernel per pair
    as the 1-D product, where ``np.einsum`` or ``(a * b).sum(1)`` may add in
    another order.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class RecommenderModel:
    """Base class: a trained model bound to its training matrix ids.

    ``train_ops`` is the trainer's count of the work its training did, a
    function of the matrix's shape and nnz and of the hyperparameters alone.
    """

    algorithm_id: str = "base"

    def __init__(self, matrix: TrainMatrix, config: dict):
        self.matrix = matrix
        self.config = dict(config)
        self.train_ops = 0

    def score_users(self, idx: np.ndarray) -> np.ndarray:
        """Scores of the users at matrix rows ``idx``: shape (len(idx), n_items)."""
        raise NotImplementedError


def stored_values(model: RecommenderModel) -> int:
    """Values the model scores from: the sizes of its ndarray attributes plus the nnz of its sparse ones."""
    return sum(v.size if isinstance(v, np.ndarray) else v.nnz
               for v in vars(model).values() if isinstance(v, np.ndarray) or sp.issparse(v))


@dataclass(frozen=True)
class RecommendationList:
    """Ranked items for one user; scores are non-increasing."""

    user: str
    items: tuple[str, ...]
    scores: tuple[float, ...]


# Grid steps per row scale: far coarser than the last-bit noise of a re-ordered
# sum, far finer than any score difference a model means.
SNAP_GRID = 1e9
# Keys of ``top_k`` are integers below (2 * SNAP_GRID + 2) * n_items, exact under 2**53.
MAX_ITEMS = int(2**53 // (2 * SNAP_GRID + 2))


def top_k(scores: np.ndarray, k: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """Item indices of each row's top k, by the snapped tie rule of this module.

    ``scores`` is a (B, n_items) array, n_items at most :data:`MAX_ITEMS` (a
    ValueError above), and ``exclude`` an optional boolean mask of the same
    shape whose items are never returned; neither are NaN or infinite scores
    (callers that must reject them check first). The result has shape
    (B, min(k, n_items)) and lists each row's items best first; a row with
    fewer than k candidates is padded at the end with -1. The order equals a
    full stable sort of every row by (-q, item index). Each key
    ``(SNAP_GRID - q) * n_items + index`` is a unique integer, so the keys are
    partitioned in place and only the first k sorted; an item is the key
    modulo n_items, and -1 marks a key at or above ``(2 * SNAP_GRID + 1) *
    n_items``, where excluded and non-finite scores land.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D (rows, items), got shape {scores.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n_items = scores.shape[1]
    if n_items > MAX_ITEMS:
        raise ValueError(f"top_k ranks at most {MAX_ITEMS} items per row, got {n_items}")
    # Each row's largest |score|, from one max and one min; NaN and ±inf reach one of them.
    scale = np.maximum(scores.max(axis=1, initial=0.0, keepdims=True), -scores.min(axis=1, initial=0.0, keepdims=True))
    bad = np.flatnonzero(~np.isfinite(scale[:, 0]))
    if bad.size:  # only rows holding NaN or ±inf pay for isfinite; their finite scores rank
        skip = np.zeros(scores.shape, dtype=bool)
        skip[bad] = ~np.isfinite(scores[bad])
        exclude = skip if exclude is None else exclude | skip
        scale[bad, 0] = np.abs(np.where(skip[bad], 0.0, scores[bad])).max(axis=1, initial=0.0)
    # A row whose largest |score| is zero or subnormal is all zero up to noise.
    scale[scale < np.finfo(np.float64).tiny] = 1.0
    q = scores / scale  # in [-1, 1] where finite
    q *= SNAP_GRID
    np.round(q, out=q)  # integers in [-1e9, 1e9]
    if exclude is not None:
        q[exclude] = -SNAP_GRID - 1  # below every candidate
    # One exact key per item, (SNAP_GRID - q) * n_items + index, summed as -q * n_items + (SNAP_GRID * n_items + index).
    key = np.multiply(q, -n_items, out=q)
    key += SNAP_GRID * n_items + np.arange(n_items, dtype=np.float64)
    width = min(k, n_items)
    if width < n_items:
        key.partition(width - 1, axis=1)  # in place: each row's width smallest keys come first
    key = np.sort(key[:, :width], axis=1)
    ranked = np.fmod(key, n_items).astype(np.intp)
    ranked[key >= (2 * SNAP_GRID + 1) * n_items] = -1  # excluded, NaN or infinite
    return ranked


def checked_scores(model: RecommenderModel, idx: np.ndarray, users) -> np.ndarray:
    """``model.score_users(idx)`` with its shape and finiteness checked.

    ``users`` names the rows of ``idx``; the first one with a NaN or infinite
    score is named in the NonFiniteScoresError.
    """
    scores = np.asarray(model.score_users(idx), dtype=np.float64)
    expected = (len(idx), model.matrix.n_items)
    if scores.shape != expected:
        raise ValueError(f"{model.algorithm_id} score_users returned shape {scores.shape}, expected {expected}")
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise NonFiniteScoresError(model.algorithm_id, users[int(np.argmin(finite))])
    return scores


def recommend_top_k(
    model: RecommenderModel,
    user: str,
    k: int = 10,
    exclude_seen: bool = True,
) -> RecommendationList:
    """Top-k recommendation for one user known at training time.

    Seen training items are excluded by default; when fewer than k candidates
    remain the list is shorter than k. Unknown users raise ColdStartError and
    non-finite scores NonFiniteScoresError. Ties follow :func:`top_k`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = model.matrix
    if user not in m.user_index:
        raise ColdStartError(f"user {user!r} was not seen during training")
    u = m.user_index[user]
    scores = checked_scores(model, np.array([u]), [user])
    exclude = None
    if exclude_seen:
        exclude = np.zeros((1, m.n_items), dtype=bool)
        exclude[0, m.seen[u]] = True
    chosen = [j for j in top_k(scores, k, exclude)[0] if j >= 0]
    return RecommendationList(
        user=user,
        items=tuple(m.item_ids[j] for j in chosen),
        scores=tuple(float(scores[0, j]) for j in chosen),
    )


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-able hyperparameter dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Bumped whenever a model class's pickled attributes change (2: itemknn holds its binarized history;
# 3: ease holds its weights as one CSR).
MODEL_FORMAT_VERSION = 3


def save_model(model: RecommenderModel, path: str) -> None:
    """Serialize a trained model with its algorithm id and config hash."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm_id": model.algorithm_id,
        "config": model.config,
        "config_hash": config_hash(model.config),
        "model": model,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def load_model(path: str) -> RecommenderModel:
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format in {path}")
    model = payload["model"]
    if config_hash(model.config) != payload["config_hash"]:
        raise ValueError(f"config hash mismatch in {path}")
    return model
