"""``map_jobs``: independent jobs (nested-CV folds, ground-truth columns, landmarks) on
one forked worker per usable CPU, each with its own pipe. ``fn`` and the jobs reach the
workers by fork, so ``fn`` may close over large inputs; only indices and results are
pickled. Every job, run here or in a worker, runs in the one environment that
``job_environment`` sets: one OpenBLAS thread, so a job's bits do not depend on the
thread count, and on Linux a heap that keeps the memory jobs free."""

from __future__ import annotations

import ctypes
import os
import signal
import sys
from contextlib import suppress
from multiprocessing.connection import Connection, Pipe, wait
from multiprocessing.pool import ExceptionWithTraceback
from typing import Callable, Sequence

from .errors import WorkerExitError

_in_worker = False  # True in a worker, whose own ``map_jobs`` calls run serially
_MAPS = "/proc/self/maps"  # where the loaded OpenBLAS libraries are found
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "openblas_set_num_threads")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _worker_count(n_jobs: int) -> int:
    """Processes for ``n_jobs`` jobs: the CPUs this process may use, at most one per job."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_jobs))


def map_jobs(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]`` on forked workers, with the results in job order.

    Of failing jobs, the first in job order raises, with the worker's traceback as its
    cause; a worker that exits during a job fails it with ``WorkerExitError``. With one
    worker, no ``fork``, or inside a worker, the jobs run here in turn."""
    job_environment()  # workers inherit it by fork
    n_workers = _worker_count(len(jobs))
    if _in_worker or n_workers == 1 or not hasattr(os, "fork"):
        return [fn(job) for job in jobs]
    workers: dict[Connection, int] = {}  # this end of each live worker's pipe -> its pid
    try:
        for _ in range(n_workers):
            _fork_worker(fn, jobs, workers)
        return _dispatch(workers, len(jobs))
    finally:
        while workers:
            _stop(workers, next(iter(workers)))


def _dispatch(workers: dict[Connection, int], n_jobs: int) -> list:
    """Send job indices in order to idle workers until a job fails; the results in job order."""
    results, running = [None] * n_jobs, {}  # running: pipe -> the index of its job
    idle, next_job, failure = list(workers), 0, None  # failure: (index, error) of the earliest failed job
    while True:
        while idle and next_job < n_jobs and failure is None:
            conn = idle.pop()
            running[conn] = next_job
            with suppress(BrokenPipeError):  # the worker has exited: its pipe reads EOF below
                conn.send(next_job)
            next_job += 1
        if failure is not None and min(running.values(), default=n_jobs) > failure[0]:
            raise failure[1]  # no earlier job is still running
        if not running:
            return results
        for conn in wait(list(running)):
            index = running.pop(conn)
            try:
                ok, value = conn.recv()
            except (EOFError, ConnectionResetError):
                ok, value = False, WorkerExitError(index, _stop(workers, conn))
            if ok:
                results[index] = value
                idle.append(conn)
            elif failure is None or index < failure[0]:
                failure = (index, value)


def _stop(workers: dict[Connection, int], conn: Connection) -> int:
    """Close ``conn``, SIGKILL its worker and reap it; the worker's exit code (-signal if killed)."""
    pid = workers.pop(conn)
    conn.close()
    os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _fork_worker(fn: Callable, jobs: Sequence, workers: dict[Connection, int]) -> None:
    """Fork a worker into ``workers``; it answers each job index with ``(ok, result or error)``."""
    global _in_worker
    conn, worker_conn = Pipe()
    pid = os.fork()
    if pid:
        worker_conn.close()
        workers[conn] = pid
        return
    try:
        _in_worker = True
        for end in (conn, *workers):
            end.close()
        if sys.platform.startswith("linux"):  # SIGKILL when the caller exits, even when killed
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
        while True:
            index = worker_conn.recv()  # EOFError once the caller's end is closed, or the caller is gone
            try:
                worker_conn.send((True, fn(jobs[index])))
            except Exception as exc:  # from the job, or a result that cannot be pickled
                worker_conn.send((False, ExceptionWithTraceback(exc, exc.__traceback__)))
    finally:  # a worker never returns into the caller's code
        os._exit(1)


def job_environment() -> None:
    """Set up this process as every job runs: one OpenBLAS thread and, on Linux, a heap that keeps
    freed memory. Never undone, since raising the BLAS thread count starts a new thread pool."""
    _one_blas_thread()
    if sys.platform.startswith("linux"):
        _keep_freed_memory()


def _one_blas_thread() -> None:
    """Set every OpenBLAS listed in ``/proc/self/maps`` to one thread; if none is found, change nothing."""
    try:
        with open(_MAPS, encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        setter = next((getattr(handle, s) for s in _BLAS_SETTERS if hasattr(handle, s)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _keep_freed_memory() -> None:
    """Serve allocations under 32 MB from the heap and keep up to 64 MB of it free (glibc ``mallopt``).

    With glibc's defaults a freed block soon goes back to the kernel: large blocks
    are mapped and unmapped, and the top of the heap is trimmed past a few MB. The
    buffers a job allocates again for each block of users it ranks are then
    faulted in page by page every time, about 34,000 minor faults per
    ``evaluate_portfolio`` call at 800 users by 5,120 items.
    """
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
