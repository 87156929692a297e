"""pool.map_jobs: jobs sent by fork, serial calls inside a worker, one job environment
on every path, and no hang or stray worker when a job, a worker or the caller dies."""

import ctypes
import os
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import recselect.pool as pool
from recselect.errors import WorkerExitError

from conftest import assert_no_child_process, deadline, force_workers

TEST_PROCESS = os.getpid()

# Run by a child Python: it calls map_jobs on two workers, each of which writes
# a file named by its pid into the directory argv[1] and then sleeps.
CALLER = """
import os, sys, time
import recselect.pool as pool
pool._worker_count = lambda n_jobs: n_jobs

def report_and_sleep(job):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

pool.map_jobs(report_and_sleep, [0, 1])
"""

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


def _faults_of_a_second_16_mb_buffer(_job):
    """Minor page faults while filling a 16 MB buffer allocated right after freeing one of the same size."""
    np.ones(2 << 20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(2 << 20)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


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

    # With one worker the jobs run in this process, which must be set up as a worker is.
    @pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "pooled"])
    def test_every_loaded_openblas_runs_one_thread_after_a_pool(self, monkeypatch, n_workers):
        libraries = openblas_libraries()
        if not libraries:
            pytest.skip("no OpenBLAS is loaded")
        for _, set_threads in libraries:
            set_threads(2)
        force_workers(monkeypatch, n_workers)
        assert pool.map_jobs(abs, [-1, -2]) == [1, 2]
        assert [get_threads() for get_threads, _ in libraries] == [1] * len(libraries)

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
    @pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "pooled"])
    def test_a_worker_reuses_freed_memory_without_faulting_it_in_again(self, monkeypatch, n_workers):
        force_workers(monkeypatch, n_workers)
        # A buffer that the kernel maps afresh faults in hundreds of pages or more.
        assert max(pool.map_jobs(_faults_of_a_second_16_mb_buffer, [0, 1])) < 64

    def test_jobs_run_when_the_memory_map_cannot_be_read(self, monkeypatch, tmp_path):
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(pool, "_MAPS", str(tmp_path / "no_maps"))
        assert pool.map_jobs(abs, [-1, -2, -3]) == [1, 2, 3]


def _kill_own_worker_on_1(job):
    if os.getpid() == TEST_PROCESS:
        raise AssertionError("the job ran in the test process")
    if job == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return job


def _fail_0_sleep_others(job):
    if job == 0:
        raise ValueError("job 0 failed")
    time.sleep(30)
    return job


def running(pid):
    """Whether process ``pid`` exists and is not a zombie, read from ``/proc/<pid>/stat``.

    An exited worker whose caller died waits as a zombie until init reaps it,
    which can take a while, so a zombie counts as not running.
    """
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def poll(condition, seconds):
    """Whether ``condition()`` became true within ``seconds``."""
    stop = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > stop:
            return False
        time.sleep(0.05)
    return True


class TestDeadWorkersAndCallers:
    def test_a_worker_killed_mid_job_fails_that_job_by_name(self, monkeypatch):
        force_workers(monkeypatch, 2)
        with deadline(5), pytest.raises(WorkerExitError) as caught:
            pool.map_jobs(_kill_own_worker_on_1, [0, 1, 2])
        assert (caught.value.job_index, caught.value.exit_code) == (1, -signal.SIGKILL)
        assert str(caught.value) == "the worker process running job 1 was killed by signal 9 before returning a result"
        assert_no_child_process()

    def test_a_failing_job_does_not_wait_for_later_jobs(self, monkeypatch):
        force_workers(monkeypatch, 2)
        with deadline(5), pytest.raises(ValueError, match="job 0 failed") as caught:
            pool.map_jobs(_fail_0_sleep_others, [0, 1])
        # The worker's traceback comes along as the cause, as from multiprocessing.Pool.
        assert "ValueError: job 0 failed" in str(caught.value.__cause__)
        assert_no_child_process()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="only Linux kills workers with their caller")
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
    def test_a_signalled_caller_leaves_no_worker_running(self, tmp_path, signum):
        src = os.path.dirname(os.path.dirname(pool.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        caller = subprocess.Popen([sys.executable, "-c", CALLER, str(tmp_path)], env=env)
        workers = []
        try:
            assert poll(lambda: len(os.listdir(tmp_path)) == 2, 30), "the two workers never started their jobs"
            workers = [int(name) for name in os.listdir(tmp_path)]
            caller.send_signal(signum)
            caller.wait(timeout=10)
            assert poll(lambda: not any(running(pid) for pid in workers), 5), "a worker outlived its caller"
        finally:
            caller.kill()
            caller.wait()
            for pid in filter(running, workers):  # after a failure: no sleeper is left behind
                os.kill(pid, signal.SIGKILL)
