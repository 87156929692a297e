"""Gradient-boosted regression trees with exact greedy splitting.

Squared-error boosting: the model starts from the target mean and each stage
fits a depth-limited CART regression tree to the current residuals, added
with a constant learning rate. Split search is exact (no histogram binning):
every feature's sorted order is scanned and the variance-reduction gain of
every admissible threshold is computed; the best (gain, then lowest split
position, then lowest feature index) wins. Feature importance is the total
split gain accumulated per feature, normalized to sum to one.

A fit sorts its rows once, as the exact greedy method of XGBoost does (Chen
& Guestrin, KDD 2016), and every tree of the fit reuses that work:

- Rank classes. Exact search reads a column only through its stable sorted
  order, its ties (where adjacent sorted values strictly rise) and the two
  values around the chosen threshold. Columns whose orders and rises are
  equal over the fit's rows keep them equal over every subset of those rows,
  so they admit the same split positions with bit-identical gains. The fit
  searches only the first column of each such class: the lowest-feature tie
  rule could never choose a later one, and column 0, whose order gives a
  node's SSE, always stays. Trees record the columns' own indices in ``x``,
  so predictions and importances see every column.
- Node cache. Every tree grows on ids into the fit's rows (a subsampled tree
  from its subsample), and the fit maps each node's ascending row ids to the
  node's search state: its sorted order, filtered from the parent's the first
  time that row set appears, and its admissible (position, column)
  candidates. Because the ids ascend, a filtered order equals a fresh stable
  argsort of the node's rows, so the cumsums, gains and tie rules are those
  of a per-node sort. The state also keeps the node's partitions: the left
  and right rows of each (feature, threshold) it was split at. Boosting keeps
  searching and splitting the same row sets, so most nodes only gather the
  current targets, run one cumsum, score the gains and look up their
  children's rows. The cache lives as long as the ``fit_gbdt`` call.
- Fused search. Each tree lays every target beside its square once, so one
  gather through a node's order and one cumsum along its rows give every
  class's sums and sums of squares. ``cumsum`` adds sequentially along a
  row, as a per-node sort's two cumsums did, so every gain keeps its bits.

Rank classes and the node cache rest on ``<`` ordering the values, so ``x``
must be finite. A fitted tree is a set of flat node arrays and predicts a
whole batch level by level. An ensemble walks all its trees together, one
level per step, and adds the init value and each tree's shrunken leaf values
in tree order with one sequential accumulate, which gives the bits of adding
tree by tree.
Without subsampling, boosting updates its running predictions from the leaf
values the tree assigned while it was built instead of predicting the rows
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


@dataclass(frozen=True)
class GBDTParams:
    num_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1
    subsample: float = 1.0
    seed: int = 0

    def validate(self) -> "GBDTParams":
        for name in ("num_trees", "max_depth", "min_samples_leaf", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, found {value!r}")
        for name in ("learning_rate", "subsample"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.number)) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, found {value!r}")
        if self.num_trees < 0:
            raise ValueError("num_trees must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "GBDTParams":
        names = [f.name for f in fields(cls)]
        if not isinstance(raw, dict) or not set(raw) <= set(names):
            raise ValueError(f"GBDT params must be an object with keys from {names}, found {raw!r}")
        return cls(**raw).validate()


_NODE_DTYPES = (np.intp, np.float64, np.intp, np.intp, np.float64, np.float64)


class RegressionTree:
    """CART regression tree stored as flat node arrays.

    Nodes are numbered in depth-first preorder. After ``fit``, ``feature``
    (-1 at a leaf), ``threshold``, ``left``, ``right`` (child node ids, -1 at
    a leaf), ``value`` (the node's target mean) and ``gain`` are numpy arrays,
    ``depth`` is the deepest leaf's level and ``fitted_values`` holds the leaf
    value of every row the tree was grown on.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "gain", "depth", "fitted_values")

    def fit(self, x: np.ndarray, y: np.ndarray, max_depth: int, min_samples_leaf: int) -> "RegressionTree":
        """Grow one tree on every row of ``x``, the way ``fit_gbdt`` grows each of its trees."""
        return self._grow(_SortedFit(x, max_depth, min_samples_leaf), y, np.arange(y.shape[0]))

    def _grow(self, fit: "_SortedFit", y: np.ndarray, rows: np.ndarray) -> "RegressionTree":
        """Grow the tree on ``rows`` (ascending ids into the fit's rows) against targets ``y``."""
        nodes: list[list] = []  # [feature, threshold, left, right, value, gain] in depth-first preorder
        self.depth = 0
        self.fitted_values = np.empty(y.shape[0])
        yy = np.empty((y.shape[0], 2))  # each target beside its square: one gather serves both
        yy[:, 0] = y
        np.multiply(y, y, out=yy[:, 1])
        self._build(fit, y, yy, rows, 0, fit.search_state(rows, 0, fit.order), nodes)
        columns = zip(*nodes)
        self.feature, self.threshold, self.left, self.right, self.value, self.gain = (
            np.asarray(column, dtype=dtype) for column, dtype in zip(columns, _NODE_DTYPES)
        )
        return self

    def _build(self, fit, y, yy, idx, depth, state, nodes) -> int:
        """Grow the subtree over rows ``idx`` (ascending); ``state`` is its search state or None."""
        mean = float(np.add.reduce(y.take(idx))) / idx.shape[0]  # np.mean's arithmetic, minus its overhead
        node = len(nodes)
        record = [-1, 0.0, -1, -1, mean, 0.0]
        nodes.append(record)
        if depth > self.depth:
            self.depth = depth
        split = None if state is None else fit.best_split(yy, state)
        if split is not None:
            left_rows, right_rows = fit.partition(state, idx, split[0], split[1])
            if left_rows.size == 0 or right_rows.size == 0:
                split = None  # midpoint rounded onto a sample value; keep the leaf
        if split is None:
            self.fitted_values[idx] = mean
            return node
        record[0], record[1], record[5] = split
        order = state[0]
        record[2] = self._build(
            fit, y, yy, left_rows, depth + 1, fit.search_state(left_rows, depth + 1, order), nodes
        )
        record[3] = self._build(
            fit, y, yy, right_rows, depth + 1, fit.search_state(right_rows, depth + 1, order), nodes
        )
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Each row's leaf value, walking every row down one level per step."""
        return _forest_walk([self])(x)[0]

    def accumulate_gains(self, totals: np.ndarray) -> None:
        inner = self.feature >= 0
        np.add.at(totals, self.feature[inner], self.gain[inner])  # in node order


# Bound on one fit's node cache. Fits without subsampling at the benchmark's
# sizes stay under 5 MB; subsampled trees rarely repeat a row set, and deep
# wide fits would otherwise hold 100 MB or more.
NODE_CACHE_BYTES = 8 * 2**20
_SUM_SQUARE = np.array([[0], [1]])  # offsets of a flat cumsum position's sum and square


class _SortedFit:
    """The rows of one fit, sorted once, with the search state of every node row set.

    ``features`` holds the first column of each rank class, ascending, and
    ``order[k]`` the fit's rows sorted stably by ``x[:, features[k]]``. Two
    columns share a rank class when their stable orders are equal and so are
    their sorted values' strict rises. ``nodes`` maps a node's ascending row
    ids (``idx.tobytes()``) to its search state, shared by every tree of the
    fit: the node's presort over the kept columns, its admissible split
    candidates and its partitions, or None when it has no candidate. It holds
    at most ``NODE_CACHE_BYTES``, the partitions' row arrays included, and
    empties when full.
    """

    def __init__(self, x: np.ndarray, max_depth: int, min_samples_leaf: int):
        if not np.isfinite(x).all():
            raise ValueError("x must hold only finite values")
        order = np.argsort(x, axis=0, kind="stable")
        x_sorted = np.take_along_axis(x, order, axis=0)
        rises = (x_sorted[:-1] < x_sorted[1:]).T
        order = order.T
        first: dict[bytes, int] = {}
        for f in range(x.shape[1]):
            first.setdefault(order[f].tobytes() + rises[f].tobytes(), f)
        self.features = np.array(list(first.values()), dtype=np.intp)
        self.order = np.ascontiguousarray(order[self.features])
        self.x = x
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.member = np.zeros(x.shape[0], dtype=bool)  # all False between calls
        self.nodes: dict[bytes, tuple | None] = {}
        self.cached_bytes = 0

    def search_state(self, rows: np.ndarray, depth: int, parent_order: np.ndarray):
        """The search state of the node over ``rows``, or None when it cannot split.

        On the row set's first appearance its presort is ``parent_order`` (any
        presort whose rows include ``rows``) filtered down to ``rows``. Since
        ``rows`` ascend, that equals a stable argsort of the node's own values.
        """
        if depth >= self.max_depth or rows.shape[0] < 2 * self.min_samples_leaf:
            return None
        key = rows.tobytes()
        if key not in self.nodes:
            self.member[rows] = True
            order = parent_order[self.member[parent_order]].reshape(self.features.size, rows.shape[0])
            self.member[rows] = False
            state = self._candidates(order)
            self._charge(len(key) + (0 if state is None else sum(a.nbytes for a in state[:5])))
            self.nodes[key] = state
        return self.nodes[key]

    def _charge(self, size: int) -> None:
        """Count ``size`` more cached bytes, emptying the cache first when they would not fit."""
        if self.cached_bytes + size > NODE_CACHE_BYTES:
            self.nodes.clear()  # start over with the row sets the latest trees search
            self.cached_bytes = 0
        self.cached_bytes += size

    def _candidates(self, order: np.ndarray):
        """(order, left ends, totals, left counts, right counts, partitions), or None.

        Split positions s place the first s sorted rows on the left; a
        position is admissible when it falls between two distinct values and
        leaves ``min_samples_leaf`` rows on each side. Candidates are listed
        s-major, so a gain tie goes to the lowest position, then the lowest
        column. Left ends and totals are (sum or square, candidate) flat
        positions in the node's (class, sorted row, target or square)
        cumsums: at the last left row and at the last row. Partitions start
        empty (see ``partition``).
        """
        n = order.shape[1]
        x_sorted = self.x[order, self.features[:, None]]
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf  # left = sorted rows 0..j
        j, k = np.nonzero((x_sorted[:, lo:hi] < x_sorted[:, lo + 1:hi + 1]).T)
        if j.size == 0:
            return None
        j += lo
        first = k * n
        counts = j + 1.0
        left_ends, totals = 2 * (first + j) + _SUM_SQUARE, 2 * (first + n - 1) + _SUM_SQUARE
        return order, left_ends, totals, counts, n - counts, {}

    def best_split(self, yy: np.ndarray, state: tuple):
        """Exact greedy search of one node: (feature, threshold, gain) or None.

        ``yy`` holds each target beside its square. One gather and one cumsum
        give the sums and sums of squares of every class, and the gains are
        those of a fresh stable sort of the node's rows over every column; None
        means no admissible split has strictly positive gain.
        """
        order, left_ends, totals, counts, right_counts, _ = state
        n = order.shape[1]
        cum = yy.take(order, axis=0).cumsum(axis=1)  # sequential along the rows, as a per-node sort sums
        total, total_sq = cum[0, -1]  # column 0 is always kept
        sse_node = float(total_sq - total * total / n)

        left = cum.take(left_ends)
        right = cum.take(totals) - left
        sse = (left[1] - left[0] * left[0] / counts) + (right[1] - right[0] * right[0] / right_counts)
        gains = sse_node - sse

        best = int(gains.argmax())
        best_gain = float(gains[best])
        if not math.isfinite(best_gain) or best_gain <= 1e-12:
            return None
        c, last = divmod(int(left_ends[0, best]) // 2, n)
        feature = int(self.features[c])
        threshold = float(0.5 * (self.x[order[c, last], feature] + self.x[order[c, last + 1], feature]))
        return feature, threshold, best_gain

    def partition(self, state: tuple, idx: np.ndarray, feature: int, threshold: float):
        """The node's rows ``idx`` with ``x[:, feature] <= threshold``, and the others.

        The state keeps each (feature, threshold) it was split at, since
        boosting splits a recurring row set the same way again and again. It
        keeps only the rows: a row set can recur at another depth, where its
        children's search states differ.
        """
        partitions = state[-1]
        key = (feature, threshold)
        if key not in partitions:
            go_left = self.x[idx, feature] <= threshold
            partitions[key] = parts = (idx[go_left], idx[~go_left])
            self._charge(parts[0].nbytes + parts[1].nbytes)
        return partitions[key]


# Bound on the (tree, row) pairs of one block of an ensemble prediction.
WALK_ENTRIES = 2**18


def _forest_walk(trees: list[RegressionTree]):
    """A function from rows ``x`` to each tree's leaf value per row, (trees, rows).

    The trees' node arrays are stacked once; each leaf becomes its own left
    and right child on column 0, so a row that reached its leaf stays there
    while the deeper trees take their next level. Every tree is walked
    together, one level per step.
    """
    if not trees:
        return lambda x: np.empty((0, x.shape[0]))
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    leaf = feature < 0
    itself = np.arange(feature.size)
    left = np.where(leaf, itself, np.concatenate([tree.left for tree in trees]) + offset)
    right = np.where(leaf, itself, np.concatenate([tree.right for tree in trees]) + offset)
    feature[leaf] = 0
    threshold = np.concatenate([tree.threshold for tree in trees])
    value = np.concatenate([tree.value for tree in trees])
    depth = max(tree.depth for tree in trees)

    def leaf_values(x: np.ndarray) -> np.ndarray:
        n, d = x.shape
        flat_x = np.ascontiguousarray(x).ravel()
        row_starts = np.arange(n) * d
        node = np.repeat(roots[:, None], n, axis=1)
        for _ in range(depth):
            go_left = flat_x.take(feature.take(node) + row_starts) <= threshold.take(node)
            node = np.where(go_left, left.take(node), right.take(node))
        return value.take(node)

    return leaf_values


def _predict_ensembles(ensembles: list["BoostedEnsemble"], x: np.ndarray) -> np.ndarray:
    """(rows, ensembles) predictions, bit for bit those of ``init + lr * leaf`` added tree by tree.

    One walk serves every tree of every ensemble, on blocks of rows that hold
    at most ``WALK_ENTRIES`` (tree, row) pairs. Each ensemble's terms are then
    summed in tree order by one sequential accumulate along the tree axis.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    width = max((e.n_features for e in ensembles), default=0)
    if x.shape[1] < width:
        raise ValueError(f"x has {x.shape[1]} columns; the model was fitted on {width}")
    trees = [tree for ensemble in ensembles for tree in ensemble.trees]
    walk = _forest_walk(trees)
    out = np.empty((x.shape[0], len(ensembles)))
    block = max(1, WALK_ENTRIES // max(1, len(trees)))
    for start in range(0, x.shape[0], block):
        leaves = walk(x[start:start + block])
        first = 0
        for j, ensemble in enumerate(ensembles):
            count = len(ensemble.trees)
            terms = np.empty((count + 1, leaves.shape[1]))
            terms[0] = ensemble.init_value
            np.multiply(ensemble.params.learning_rate, leaves[first:first + count], out=terms[1:])
            out[start:start + block, j] = np.add.accumulate(terms, axis=0)[-1]
            first += count
    return out


class BoostedEnsemble:
    """A fitted boosting model: init value plus shrunken trees."""

    def __init__(self, params: GBDTParams, init_value: float, trees: list[RegressionTree], n_features: int):
        self.params = params
        self.init_value = init_value
        self.trees = trees
        self.n_features = n_features
        self.train_mse_trace: list[float] = []

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(_predict_ensembles([self], x)[:, 0])

    def feature_importance(self) -> np.ndarray:
        totals = np.zeros(self.n_features)
        for tree in self.trees:
            tree.accumulate_gains(totals)
        s = totals.sum()
        return totals / s if s > 0 else totals


def fit_gbdt(x: np.ndarray, y: np.ndarray, params: GBDTParams) -> BoostedEnsemble:
    """Fit one squared-loss boosted ensemble; ``x`` must be finite."""
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be 2-D and y 1-D with matching row counts")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")

    n = x.shape[0]
    rng = np.random.default_rng(params.seed) if params.subsample < 1.0 else None
    current = np.full(n, float(y.mean()))
    ensemble = BoostedEnsemble(params, float(y.mean()), [], x.shape[1])
    fit = _SortedFit(x, params.max_depth, params.min_samples_leaf)
    every_row = np.arange(n)

    for _ in range(params.num_trees):
        residual = y - current
        if rng is not None:
            size = max(1, int(round(params.subsample * n)))
            rows = np.sort(rng.choice(n, size=size, replace=False))
        else:
            rows = every_row
        tree = RegressionTree()._grow(fit, residual, rows)
        ensemble.trees.append(tree)
        # Without subsampling the tree was grown on every row and already knows
        # each row's leaf value. The ensemble keeps no per-row arrays.
        fitted = tree.predict(x) if rng is not None else tree.fitted_values
        tree.fitted_values = None
        current += params.learning_rate * fitted
        ensemble.train_mse_trace.append(float(np.add.reduce((y - current) ** 2)) / n)  # np.mean's arithmetic
    return ensemble


class MultiOutputGBDT:
    """Independent ensembles, one per output column, sub-seeded per column."""

    def __init__(self, ensembles: list[BoostedEnsemble], params: GBDTParams):
        self.ensembles = ensembles
        self.params = params

    @property
    def n_outputs(self) -> int:
        return len(self.ensembles)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _predict_ensembles(self.ensembles, x)

    def feature_importance(self) -> np.ndarray:
        """Mean of per-output normalized importances (still sums to one)."""
        return np.mean([e.feature_importance() for e in self.ensembles], axis=0)


def fit_multi_output_gbdt(x: np.ndarray, y: np.ndarray, params: GBDTParams) -> MultiOutputGBDT:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("y must be 2-D (rows x outputs)")
    ensembles = []
    for j in range(y.shape[1]):
        ensembles.append(fit_gbdt(x, y[:, j], replace(params, seed=params.seed + j)))
    return MultiOutputGBDT(ensembles, params)
