"""The forked worker pool that ``grid`` and the ingest of a large export run their work in.

``run_pool`` calls one function once per argument tuple, each call in a
worker process, and returns the results in call order. The pool keeps
three guarantees for the command that uses it:

- An exception that stops the caller stops every worker on its way out:
  Ctrl-C's KeyboardInterrupt, or the SystemExit(143) that the ``ddoscast``
  command raises on SIGTERM (``ddoscast.__main__``). The pool installs no
  signal handler in the caller, so a library caller that installs no
  SIGTERM handler is ended by the signal, and its workers by the kernel
  (``_die_with_parent``).
- A worker that dies (killed by a signal, or by the kernel when memory runs
  out) raises WorkerLostError, naming whose worker it was.
- A worker never outlives the process that started it (``_die_with_parent``).

In a process that has numpy loaded, every worker runs OpenBLAS on one
thread, so a computation's bits never depend on the core count or the
worker count, and two workers' BLAS threads never fight over the same CPUs;
where no OpenBLAS thread setter is found, the pool runs one worker. A
process without numpy (``ingest``) has no BLAS to pin, and neither probes
nor loads it. Workers are forked rather than spawned: they start with what
their parent imported, a script without a __main__ guard is not run again,
and ``shared`` reaches them through the fork instead of being pickled once
per call. The fork is safe here because ProcessPoolExecutor forks every
worker before it starts its own threads, and OpenBLAS stops its thread
pool before a fork and restarts it on use.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from .__main__ import stop_signals
from .errors import WorkerLostError


def _blas_threads() -> tuple:
    """``blas.openblas_threads()`` where numpy is loaded; elsewhere (), with nothing loaded."""
    if "numpy" not in sys.modules:
        return ()
    from . import blas

    return blas.openblas_threads()


def worker_count(tasks: int | None = None) -> int:
    """One worker per usable CPU, at most ``tasks``.

    Only one where numpy is loaded and its OpenBLAS cannot be pinned to one
    thread per worker. A host without ``os.sched_getaffinity`` (macOS) counts
    its CPUs by ``os.cpu_count()``, and one if that is unknown.
    """
    if "numpy" in sys.modules and not _blas_threads():
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return cpus if tasks is None else min(tasks, cpus)


_PR_SET_PDEATHSIG = 1


def _die_with_parent(owner_pid: int) -> None:
    """Have the kernel SIGKILL this process when ``owner_pid``, its parent, dies.

    Linux only; elsewhere a no-op. A parent killed outright (SIGKILL, the
    OOM killer) cannot stop its workers, and they would otherwise run on
    under PID 1. The signal follows the thread that forked the worker, not
    the process; every worker is forked by the thread that calls run_pool,
    which outlives the pool.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        return
    # The owner may have died between the fork and the prctl call above.
    if os.getppid() != owner_pid:
        os.kill(os.getpid(), signal.SIGKILL)


# How long run_pool waits on its workers before it lets a stop signal in.
_STOP_POLL_S = 0.05

# In a worker, the ``shared`` arguments of the run_pool call that forked it.
# Set once per worker process by _init_worker; the parent never sets it.
_shared: tuple = ()


def _init_worker(owner_pid: int, shared: tuple = ()) -> None:
    global _shared
    _die_with_parent(owner_pid)
    # Forked with SIGINT and SIGTERM blocked. A worker leaves SIGINT to the
    # parent, which stops it, and dies at once on SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGINT, signal.SIGTERM))
    for _get_threads, set_threads in _blas_threads():
        set_threads(1)
    _shared = shared


def _call(function, args: tuple):
    return function(*_shared, *args)


def run_pool(function, calls: list[tuple], shared: tuple, whose: str,
             order: list[int] | None = None) -> list:
    """``function(*shared, *args)`` for every ``args`` in ``calls``, each in a worker process.

    Results come back in the order of ``calls``; ``order`` is the order the
    calls are handed out in (by default, as given). ``shared`` is forked
    into the ``worker_count(len(calls))`` workers, not pickled. The first
    call that raises stops the others and its error is raised here; a
    worker that dies raises WorkerLostError, whose message names ``whose``
    worker it was ("a grid worker").
    """
    order = range(len(calls)) if order is None else order
    # SIGINT and SIGTERM are held back for the whole run, so that their
    # handlers never raise inside the executor's locks and waits, nor arrive
    # unseen just before a wait starts and leave it waiting for workers that
    # never finish. They are let in only between two waits of at most
    # _STOP_POLL_S seconds each; an interrupt never strands a worker.
    with stop_signals(signal.SIG_BLOCK):
        pool = ProcessPoolExecutor(
            worker_count(len(calls)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(os.getpid(), shared),
        )
        try:
            futures = [None] * len(calls)
            for i in order:
                futures[i] = pool.submit(_call, function, calls[i])
            while True:
                done, not_done = wait(futures, _STOP_POLL_S, FIRST_EXCEPTION)
                if not not_done or any(future.exception() is not None for future in done):
                    break
                with stop_signals(signal.SIG_UNBLOCK):
                    pass  # a pending stop signal's handler raises here
            for future in futures:
                if future.done() and future.exception() is not None:
                    raise future.exception()
            return [future.result() for future in futures]
        except BrokenProcessPool:
            raise WorkerLostError(
                f"{whose} process ended abruptly (killed by a signal or out of memory)"
            ) from None
        except BaseException:
            # ProcessPoolExecutor has no public way to stop a busy worker
            # before Python 3.14, so kill each one directly.
            for process in list(pool._processes.values()):
                process.kill()
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
