"""pool.map_jobs: jobs sent by fork, serial calls inside a worker, one BLAS thread."""

import ctypes
import os

import numpy as np
import pytest

import recselect.pool as pool

from conftest import force_workers

_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def openblas_libraries():
    """(get, set) thread-count functions of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        handle = ctypes.CDLL(path)
        for getter_name in _BLAS_GETTERS:
            getter = getattr(handle, getter_name, None)
            if getter is not None:
                setter = getattr(handle, getter_name.replace("_get_", "_set_"))
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((getter, setter))
                break
    return found


def _pid_and_inner_pids(job):
    return os.getpid(), pool.map_jobs(lambda _: os.getpid(), [0, 1, 2])


class TestMapJobs:
    def test_a_closure_reaches_the_workers_by_fork(self, monkeypatch):
        force_workers(monkeypatch, 2)
        table = np.arange(10) * 3
        # A lambda cannot be pickled, so only a fork can hand it to a worker.
        results = pool.map_jobs(lambda i: (int(table[i]), os.getpid()), [1, 2, 3])
        assert [value for value, _ in results] == [3, 6, 9]
        assert os.getpid() not in {pid for _, pid in results}

    def test_a_call_inside_a_worker_runs_serially(self, monkeypatch):
        force_workers(monkeypatch, 2)
        for worker, inner in pool.map_jobs(_pid_and_inner_pids, [0, 1]):
            assert worker != os.getpid()
            assert inner == [worker] * 3

    def test_every_loaded_openblas_runs_one_thread_after_a_pool(self, monkeypatch):
        libraries = openblas_libraries()
        if not libraries:
            pytest.skip("no OpenBLAS is loaded")
        for _, set_threads in libraries:
            set_threads(2)
        force_workers(monkeypatch, 2)
        assert pool.map_jobs(abs, [-1, -2]) == [1, 2]
        assert [get_threads() for get_threads, _ in libraries] == [1] * len(libraries)

    def test_jobs_run_when_the_memory_map_cannot_be_read(self, monkeypatch, tmp_path):
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(pool, "_MAPS", str(tmp_path / "no_maps"))
        assert pool.map_jobs(abs, [-1, -2, -3]) == [1, 2, 3]
