"""Shared fixtures and small dataset builders."""

import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

import recselect.pool as pool
from recselect.data import Dataset, Interaction, temporal_split_per_user
from recselect.recommenders import build_train_matrix


# Every available algorithm with parameters small enough for test-size matrices.
SMALL_PARAMS = {
    "pop": {},
    "itemknn": {"neighbors": 3},
    "userknn": {"neighbors": 3},
    "biasedmf": {"factors": 3, "epochs": 4},
    "implicitmf": {"factors": 3, "iterations": 3},
    "bpr": {"factors": 3, "epochs": 4},
    "ease": {"l2": 2.0},
}

# biasedmf at a diverging learning rate overflows, then meets inf - inf, on purpose. A test that trains
# it so declares these two warnings; the pytest configuration turns every other RuntimeWarning into an error.
DIVERGES = pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")


def force_workers(monkeypatch, n_workers):
    """Run ``pool.map_jobs`` on ``n_workers`` processes (at most one per job) whatever the CPU count."""
    monkeypatch.setattr(pool, "_worker_count", lambda n_jobs: min(n_workers, n_jobs))


def assert_no_child_process():
    """This process has no child left, running or exited and unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)  # a fork does not inherit the timer
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_dataset(rows, name="toy"):
    """Build a Dataset from (user, item, rating, timestamp) tuples."""
    return Dataset(name, tuple(Interaction(u, i, float(r), int(t)) for u, i, r, t in rows))


@pytest.fixture
def explicit_toy():
    """Three users, four items, explicit ratings, strictly increasing clocks."""
    return make_dataset(
        [
            ("a", "i1", 5.0, 10),
            ("a", "i2", 3.0, 20),
            ("a", "i3", 4.0, 30),
            ("b", "i1", 1.0, 11),
            ("b", "i4", 2.0, 21),
            ("b", "i2", 5.0, 31),
            ("c", "i3", 4.0, 12),
            ("c", "i4", 4.0, 22),
            ("c", "i1", 2.0, 32),
        ]
    )


@pytest.fixture
def toy_split(explicit_toy):
    return temporal_split_per_user(explicit_toy, 0.2)


@pytest.fixture
def toy_matrix(toy_split):
    return build_train_matrix(toy_split.train)


def random_dataset(rng, n_users=12, n_items=15, min_per_user=2, max_per_user=8, name="rand"):
    """Random implicit dataset; every user gets at least two interactions."""
    rows = []
    ts = 0
    for u in range(n_users):
        size = int(rng.integers(min_per_user, max_per_user + 1))
        items = rng.choice(n_items, size=min(size, n_items), replace=False)
        for i in items:
            rows.append((f"u{u:03d}", f"i{int(i):03d}", 1.0 + float(rng.integers(0, 5)), ts))
            ts += 1
    return make_dataset(rows, name=name)


def dense_b(model):
    """An EASE model's item weights as the dense n_items x n_items B."""
    return model.weights.toarray()


def per_entry_normal_equations(factors_other, csr, alpha, reg):
    """An ALS half-step's A and b summed per stored entry: each entry's k x k outer
    product, segment-summed over its CSR row by a sparse product whose rows are the segments."""
    n_rows = csr.shape[0]
    k = factors_other.shape[1]
    gram = factors_other.T @ factors_other + reg * np.eye(k)
    q_s = factors_other[csr.indices]
    conf = 1.0 + alpha * csr.data
    entries = np.arange(csr.nnz)

    def segment_sum(weights, rows):
        return sp.csr_matrix((weights, entries, csr.indptr), shape=(n_rows, csr.nnz)) @ rows

    outer = (q_s[:, :, None] * q_s[:, None, :]).reshape(csr.nnz, k * k)
    return gram + segment_sum(conf - 1.0, outer).reshape(n_rows, k, k), segment_sum(conf, q_s)


def lu_solve_side(factors_other, csr, alpha, reg):
    """An ALS half-step solved the reference way: the per-entry systems, a batched
    Cholesky factor, and ``np.linalg.solve`` (a pivoted LU) on the factor and on its transpose."""
    a, b = per_entry_normal_equations(factors_other, csr, alpha, reg)
    chol = np.linalg.cholesky(a)
    y = np.linalg.solve(chol, b[:, :, None])
    return np.linalg.solve(np.swapaxes(chol, 1, 2), y)[:, :, 0]


def generic_wavefronts(users, items, n_users, n_items):
    """The wavefront levels by a loop over each sample's items, whatever their number,
    and a stable argsort of the levels: the reference for ``base.wavefronts``."""
    user_level = [0] * n_users
    item_level = [0] * n_items
    levels = []
    for u, its in zip(users.tolist(), items.tolist()):
        level = user_level[u]
        for i in its:
            if item_level[i] > level:
                level = item_level[i]
        level += 1
        user_level[u] = level
        for i in its:
            item_level[i] = level
        levels.append(level)
    levels = np.asarray(levels, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(levels)[1:-1]))


def int64_key_top_k(scores, k, exclude=None):
    """``base.top_k`` the reference way: an ``isfinite`` pass over every score, the scale
    from ``abs``, and the key (SNAP_GRID - q) * n_items + index cast to int64."""
    grid = 1e9
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, n_items = scores.shape
    finite = np.isfinite(scores)
    if not finite.all():
        exclude = ~finite if exclude is None else exclude | ~finite
        scores = np.where(finite, scores, 0.0)
    scale = np.abs(scores).max(axis=1, initial=0.0, keepdims=True)
    scale[scale < np.finfo(np.float64).tiny] = 1.0
    q = scores / scale
    q *= grid
    np.round(q, out=q)
    if exclude is not None:
        q[exclude] = -grid - 1
    key = np.subtract(grid, q, out=q).astype(np.int64)
    key *= n_items
    key += np.arange(n_items)
    width = min(k, n_items)
    if width < n_items:
        part = np.argpartition(key, width - 1, axis=1)[:, :width]
    else:
        part = np.broadcast_to(np.arange(n_items), (n_rows, n_items))
    order = np.take_along_axis(part, np.argsort(np.take_along_axis(key, part, axis=1), axis=1), axis=1)
    if exclude is None:
        return order
    return np.where(np.take_along_axis(exclude, order, axis=1), -1, order)
