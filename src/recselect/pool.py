"""Independent jobs on a ``fork`` process pool: the outer folds of nested CV,
the ground-truth columns and the landmarks.

``map_jobs(fn, jobs)`` is ``[fn(job) for job in jobs]`` with the jobs spread
over one worker per usable CPU. The workers get ``fn`` and the jobs by fork,
not by pickle, so ``fn`` may be a closure over large inputs such as a
``TrainMatrix``; only each job's index goes to a worker and only its result
comes back. Before it forks, the pool sets every OpenBLAS loaded in the
process to one thread and leaves it there: the workers already use every CPU,
and BLAS threads on top of them only compete for the same CPUs.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

# ``(fn, jobs)`` of the pool that is running. Set in the parent before the
# workers fork, so each worker holds its own copy; a ``map_jobs`` call that
# finds it set (inside a worker) runs its jobs serially.
_task: tuple[Callable, Sequence] | None = None

_MAPS = "/proc/self/maps"  # where the loaded OpenBLAS libraries are found
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _worker_count(n_jobs: int) -> int:
    """Processes for ``n_jobs`` jobs: the CPUs this process may use, at most one per job."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_jobs))


def map_jobs(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, with the jobs spread over a ``fork`` process pool.

    The results come back in job order, whichever worker finishes first, so no
    output depends on the worker count. Where several jobs fail, the caller gets
    the exception of the first failing job in job order, as in a serial loop, and
    the pool is stopped. With one worker, where ``fork`` does not exist, or
    inside a worker of another pool, the jobs run here one after another.
    """
    global _task
    n_workers = _worker_count(len(jobs))
    if _task is not None or n_workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(job) for job in jobs]
    _one_blas_thread()
    _task = (fn, jobs)
    try:
        # Workers fork with SIGTERM blocked and unblock it under the default action,
        # which ``terminate`` relies on. A Python handler inherited from the caller
        # runs only between bytecodes, so a worker that SIGTERM reaches just before it
        # blocks on the pool's task lock would never exit, and ``terminate`` would
        # wait for it forever.
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            pool = multiprocessing.get_context("fork").Pool(n_workers, initializer=_default_sigterm)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        with pool, _sigterm_exits():
            return list(pool.imap(_run_job, range(len(jobs)), chunksize=1))
    finally:
        _task = None


def _run_job(index: int):
    fn, jobs = _task
    return fn(jobs[index])


def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    The libraries are found by path in ``/proc/self/maps``; where that cannot
    be read, or no OpenBLAS is loaded, nothing changes.
    """
    try:
        with open(_MAPS, encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in _BLAS_SETTERS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _default_sigterm():
    """Pool initializer: SIGTERM ends the worker at once, also if it arrived during the fork."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


@contextmanager
def _sigterm_exits():
    """While open, SIGTERM raises SystemExit here, so the pool's ``with`` stops its workers.

    By default SIGTERM ends the process at once, and a worker busy with a job
    would run on until the job is done. A handler set elsewhere, or a call off
    the main thread, is left as it is.
    """
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGTERM) != signal.SIG_DFL):
        yield
        return
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)
