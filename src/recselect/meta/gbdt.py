"""Gradient-boosted regression trees with exact greedy splitting.

Squared-error boosting: the model starts from the target mean and each stage
fits a depth-limited CART regression tree to the current residuals, added
with a constant learning rate. Split search is exact (no histogram binning):
every feature's sorted order is scanned and the variance-reduction gain of
every admissible threshold is computed; the best (gain, then lowest split
position, then lowest feature index) wins. Feature importance is the total
split gain accumulated per feature, normalized to sum to one.

Each tree sorts its rows once, at the root, as the exact greedy method of
XGBoost does (Chen & Guestrin, KDD 2016); a child's sorted order is its
parent's with the other child's rows filtered out, so the scans, gains and
tie rules are those of a fresh stable sort at every node. A fitted tree is a
set of flat node arrays and predicts a whole batch level by level. Without
subsampling, boosting updates its running predictions from the leaf values
the tree assigned while it was built instead of predicting the rows again.
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
    value of every training row.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "gain", "depth", "fitted_values")

    def fit(self, x: np.ndarray, y: np.ndarray, max_depth: int, min_samples_leaf: int) -> "RegressionTree":
        self.feature, self.threshold, self.left, self.right, self.value, self.gain = [], [], [], [], [], []
        self.depth = 0
        self.fitted_values = np.empty(y.shape[0])
        # One stable sort per tree, feature-major: order[f] lists the rows by x[:, f].
        order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
        member = np.zeros(y.shape[0], dtype=bool)
        self._build(x, y, np.arange(y.shape[0]), order, member, 0, max_depth, min_samples_leaf)
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

    def _build(self, x, y, idx, order, member, depth, max_depth, min_samples_leaf) -> int:
        """Grow the subtree over rows ``idx`` (ascending); ``order`` is their presort.

        A child's order is the parent's filtered by the child's row mask. Since
        ``idx`` is ascending, that equals a stable argsort of ``x[idx]`` mapped
        back to row ids, so every cumsum and gain matches a per-node sort.
        ``member`` is an all-False mask over the tree's rows, reused by every split.
        """
        mean = float(y[idx].sum()) / idx.shape[0]  # np.mean's arithmetic, without its overhead
        node = self._new_node(mean)
        self.depth = max(self.depth, depth)
        split = None
        if depth < max_depth and idx.shape[0] >= 2 * min_samples_leaf:
            split = _best_split(x, y, order, min_samples_leaf)
        if split is not None:
            feature, threshold, gain = split
            go_left = x[idx, feature] <= threshold
            if np.count_nonzero(go_left) in (0, idx.shape[0]):
                split = None  # midpoint rounded onto a sample value; keep the leaf
        if split is None:
            self.fitted_values[idx] = mean
            return node
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.gain[node] = gain
        left_rows = idx[go_left]
        member[left_rows] = True
        in_left = member[order]
        member[left_rows] = False
        n_features = order.shape[0]
        left_order = order[in_left].reshape(n_features, -1)
        right_order = order[~in_left].reshape(n_features, -1)
        self.left[node] = self._build(
            x, y, left_rows, left_order, member, depth + 1, max_depth, min_samples_leaf
        )
        self.right[node] = self._build(
            x, y, idx[~go_left], right_order, member, depth + 1, max_depth, min_samples_leaf
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


def _best_split(x: np.ndarray, y: np.ndarray, order: np.ndarray, min_samples_leaf: int):
    """Exact greedy search over all features at once.

    ``order`` is the node's presort, shape (features, rows >= 2): ``order[f]``
    holds the node's row ids sorted stably by ``x[:, f]``. Returns (feature,
    threshold, gain) or None when no admissible split has strictly positive
    gain. Split positions s place the first s sorted rows on the left; a
    position is admissible when it falls between two distinct values and
    leaves ``min_samples_leaf`` rows on each side, and gains are evaluated at
    admissible positions only. Position order breaks gain ties before feature
    order does (the candidates are listed s-major and the first maximum wins).
    """
    n_features, n = order.shape
    if n_features == 0:
        return None
    x_sorted = x[order, np.arange(n_features)[:, None]]
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf  # left = sorted rows 0..j, lo <= j < hi
    j, feature = np.nonzero((x_sorted[:, lo:hi] < x_sorted[:, lo + 1:hi + 1]).T)
    if j.size == 0:
        return None
    j += lo

    y_sorted = y[order]
    cum = y_sorted.cumsum(axis=1)
    cum_sq = (y_sorted * y_sorted).cumsum(axis=1)
    sse_node = float(cum_sq[0, -1] - cum[0, -1] * cum[0, -1] / n)

    total, total_sq = cum[feature, -1], cum_sq[feature, -1]
    left_sum, left_sq = cum[feature, j], cum_sq[feature, j]
    counts = j + 1.0
    right_sum, right_sq = total - left_sum, total_sq - left_sq
    sse = (left_sq - left_sum * left_sum / counts) + (right_sq - right_sum * right_sum / (n - counts))
    gains = sse_node - sse

    best = int(gains.argmax())
    best_gain = float(gains[best])
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return None
    f, last = int(feature[best]), int(j[best])
    threshold = float(0.5 * (x_sorted[f, last] + x_sorted[f, last + 1]))
    return f, threshold, best_gain


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
    """Fit one squared-loss boosted ensemble."""
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

    for _ in range(params.num_trees):
        residual = y - current
        if rng is not None:
            size = max(1, int(round(params.subsample * n)))
            rows = np.sort(rng.choice(n, size=size, replace=False))
        else:
            rows = slice(None)
        tree = RegressionTree().fit(
            x[rows], residual[rows], params.max_depth, params.min_samples_leaf
        )
        ensemble.trees.append(tree)
        # Without subsampling the tree was fit on every row and already knows
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
