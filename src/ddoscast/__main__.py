"""Start-up of the ``ddoscast`` command: ``python -m ddoscast`` and the console script.

``python -m ddoscast.cli`` runs the same ``prologue`` from its first lines,
and the same ``unwind_on_stop`` once its imports are done. This module
imports only ``contextlib``, ``os``, ``signal`` and ``sys``, so the
prologue runs before numpy or any other part of ddoscast is loaded.

SIGINT and SIGTERM are the two stop signals, and every command handles
them the same way: exit 130 after one ``error: interrupted`` line on
stderr, or exit 143 with nothing on stderr. ``stop_signals`` holds them
back where a command must not be stopped halfway: while ``cli`` swaps a
finished run into place, and while ``pool`` runs its workers, which lets
them in only between two waits.
"""

import contextlib
import os
import signal
import sys

# What a stop signal prints on stderr before the command exits 128 + signum.
_STOP_LINES = {signal.SIGINT: b"error: interrupted\n", signal.SIGTERM: b""}


@contextlib.contextmanager
def stop_signals(how: int):
    """Block (SIG_BLOCK) or let in (SIG_UNBLOCK) SIGINT and SIGTERM in this thread.

    A pending stop signal that SIG_UNBLOCK lets in runs its handler in the
    unblocking call; the mask is put back also when that handler raises.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(how, _STOP_LINES)
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _stopped_at_startup(signum, _frame):
    os.write(2, _STOP_LINES[signum])
    os._exit(128 + signum)


def _exit_on_sigterm(signum, _frame):
    raise SystemExit(128 + signum)


def prologue() -> None:
    """Prepare this process to run the command line; call it before importing ``cli``.

    - A stop signal while ``cli``'s imports load would end in a traceback
      (SIGINT) or kill the process outright (SIGTERM): no handler can cover
      the imports yet. Nothing has been written and no worker exists, so
      exit at once; os._exit, because the code interrupted could swallow a
      SystemExit. ``unwind_on_stop`` takes over once the imports are done.
    - OpenBLAS starts with one thread unless OPENBLAS_NUM_THREADS says
      otherwise. Every command pins BLAS to one thread where it computes, or
      does no BLAS work, so the thread pool OpenBLAS would otherwise start
      when numpy loads costs start-up time and is never used.
    """
    for signum in _STOP_LINES:
        signal.signal(signum, _stopped_at_startup)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def unwind_on_stop() -> None:
    """Make the stop signals raise, once ``cli`` is imported; call it before ``cli.main``.

    SIGINT raises KeyboardInterrupt and SIGTERM raises SystemExit(143), so
    wherever the command is stopped, the ``finally`` that removes its
    unfinished run directory and the pool's stopping of its workers run on
    the way out.
    """
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)


def main() -> int:
    """Run the command line on ``sys.argv``; the target of the ``ddoscast`` script."""
    prologue()
    from . import cli

    unwind_on_stop()
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
