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
  of a per-node sort. Boosting keeps searching the same row sets, so most
  searches only gather the current targets, run two cumsums and score the
  gains. The cache lives as long as the ``fit_gbdt`` call.

Both rest on ``<`` ordering the values, so ``x`` must be finite. A fitted tree
is a set of flat node arrays and predicts a whole batch level by level.
Without subsampling, boosting updates its running predictions from the leaf
values the tree assigned while it was built instead of predicting the rows
again.
"""

from __future__ import annotations

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
        self.feature, self.threshold, self.left, self.right, self.value, self.gain = [], [], [], [], [], []
        self.depth = 0
        self.fitted_values = np.empty(y.shape[0])
        self._build(fit, y, rows, 0, fit.search_state(rows, 0, fit.order))
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.intp)
        self.right = np.asarray(self.right, dtype=np.intp)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.gain = np.asarray(self.gain, dtype=np.float64)
        return self

    def _new_node(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.gain.append(0.0)
        return len(self.feature) - 1

    def _build(self, fit, y, idx, depth, state) -> int:
        """Grow the subtree over rows ``idx`` (ascending); ``state`` is its search state or None."""
        mean = float(y[idx].sum()) / idx.shape[0]  # np.mean's arithmetic, without its overhead
        node = self._new_node(mean)
        self.depth = max(self.depth, depth)
        split = None if state is None else fit.best_split(y, state)
        if split is not None:
            feature, threshold, gain = split
            go_left = fit.x[idx, feature] <= threshold
            if np.count_nonzero(go_left) in (0, idx.shape[0]):
                split = None  # midpoint rounded onto a sample value; keep the leaf
        if split is None:
            self.fitted_values[idx] = mean
            return node
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.gain[node] = gain
        order, left_rows, right_rows = state[0], idx[go_left], idx[~go_left]
        self.left[node] = self._build(
            fit, y, left_rows, depth + 1, fit.search_state(left_rows, depth + 1, order)
        )
        self.right[node] = self._build(
            fit, y, right_rows, depth + 1, fit.search_state(right_rows, depth + 1, order)
        )
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Walk every row down one level per step; leaves keep their node."""
        rows = np.arange(x.shape[0])
        node = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            feature = self.feature[node]
            inner = feature >= 0
            go_left = x[rows, np.where(inner, feature, 0)] <= self.threshold[node]
            node = np.where(inner, np.where(go_left, self.left[node], self.right[node]), node)
        return self.value[node]

    def accumulate_gains(self, totals: np.ndarray) -> None:
        inner = self.feature >= 0
        np.add.at(totals, self.feature[inner], self.gain[inner])  # in node order


# Bound on one fit's node cache. Fits without subsampling at the benchmark's
# sizes stay under 5 MB; subsampled trees rarely repeat a row set, and deep
# wide fits would otherwise hold 100 MB or more.
NODE_CACHE_BYTES = 8 * 2**20


class _SortedFit:
    """The rows of one fit, sorted once, with the search state of every node row set.

    ``features`` holds the first column of each rank class, ascending, and
    ``order[k]`` the fit's rows sorted stably by ``x[:, features[k]]``. Two
    columns share a rank class when their stable orders are equal and so are
    their sorted values' strict rises. ``nodes`` maps a node's ascending row
    ids (``idx.tobytes()``) to its search state, shared by every tree of the
    fit: the node's presort over the kept columns and its admissible split
    candidates, or None when it has none. It holds at most
    ``NODE_CACHE_BYTES`` and empties when full.
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
            size = len(key) + (0 if state is None else sum(a.nbytes for a in state))
            if self.cached_bytes + size > NODE_CACHE_BYTES:
                self.nodes.clear()  # start over with the row sets the latest trees search
                self.cached_bytes = 0
            self.nodes[key] = state
            self.cached_bytes += size
        return self.nodes[key]

    def _candidates(self, order: np.ndarray):
        """(order, left ends, totals, left counts, right counts) of every admissible split.

        Split positions s place the first s sorted rows on the left; a
        position is admissible when it falls between two distinct values and
        leaves ``min_samples_leaf`` rows on each side. Candidates are listed
        s-major, so a gain tie goes to the lowest position, then the lowest
        column. Left ends and totals are flat positions in the node's
        (class, sorted row) cumsums: the last left row and the last row.
        """
        n = order.shape[1]
        x_sorted = self.x[order, self.features[:, None]]
        lo, hi = self.min_samples_leaf - 1, n - self.min_samples_leaf  # left = sorted rows 0..j
        j, k = np.nonzero((x_sorted[:, lo:hi] < x_sorted[:, lo + 1:hi + 1]).T)
        if j.size == 0:
            return None
        j += lo
        counts = j + 1.0
        return order, k * n + j, k * n + (n - 1), counts, n - counts

    def best_split(self, y: np.ndarray, state: tuple):
        """Exact greedy search of one node: (feature, threshold, gain) or None.

        Only ``y`` is gathered; the gains are those of a fresh stable sort of
        the node's rows over every column, and None means no admissible split
        has strictly positive gain.
        """
        order, left_end, total, counts, right_counts = state
        n = order.shape[1]
        y_sorted = y.take(order)
        cum = y_sorted.cumsum(axis=1)
        cum_sq = (y_sorted * y_sorted).cumsum(axis=1)
        sse_node = float(cum_sq[0, -1] - cum[0, -1] * cum[0, -1] / n)  # column 0 is always kept

        left_sum, left_sq = cum.take(left_end), cum_sq.take(left_end)
        right_sum, right_sq = cum.take(total) - left_sum, cum_sq.take(total) - left_sq
        sse = (left_sq - left_sum * left_sum / counts) + (right_sq - right_sum * right_sum / right_counts)
        gains = sse_node - sse

        best = int(gains.argmax())
        best_gain = float(gains[best])
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None
        c, last = divmod(int(left_end[best]), n)
        feature = int(self.features[c])
        threshold = float(0.5 * (self.x[order[c, last], feature] + self.x[order[c, last + 1], feature]))
        return feature, threshold, best_gain


class BoostedEnsemble:
    """A fitted boosting model: init value plus shrunken trees."""

    def __init__(self, params: GBDTParams, init_value: float, trees: list[RegressionTree], n_features: int):
        self.params = params
        self.init_value = init_value
        self.trees = trees
        self.n_features = n_features
        self.train_mse_trace: list[float] = []

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.full(x.shape[0], self.init_value)
        for tree in self.trees:
            out += self.params.learning_rate * tree.predict(x)
        return out

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
        ensemble.train_mse_trace.append(float(np.mean((y - current) ** 2)))
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
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.column_stack([e.predict(x) for e in self.ensembles])

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
