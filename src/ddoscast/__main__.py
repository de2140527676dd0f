"""Start-up of the ``ddoscast`` command: ``python -m ddoscast`` and the console script.

``python -m ddoscast.cli`` runs the same ``prologue`` from its first lines.
This module imports only ``os``, ``signal`` and ``sys``, so the prologue
runs before numpy or any other part of ddoscast is loaded.
"""

import os
import signal
import sys


def _interrupted_at_startup(_signum, _frame):
    os.write(2, b"error: interrupted\n")
    os._exit(130)


def prologue() -> None:
    """Prepare this process to run the command line; call it before importing ``cli``.

    - A Ctrl-C while ``cli``'s imports load would end in a traceback: no
      handler can cover them yet. Nothing has been written and no worker
      exists, so exit 130 at once; os._exit, because the code interrupted
      could swallow a SystemExit. The caller hands SIGINT back to ``cli``'s
      own handling once the imports are done.
    - OpenBLAS starts with one thread unless OPENBLAS_NUM_THREADS says
      otherwise. Every command pins BLAS to one thread where it computes, or
      does no BLAS work, so the thread pool OpenBLAS would otherwise start
      when numpy loads costs start-up time and is never used.
    """
    signal.signal(signal.SIGINT, _interrupted_at_startup)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main() -> int:
    """Run the command line on ``sys.argv``; the target of the ``ddoscast`` script."""
    prologue()
    from . import cli

    signal.signal(signal.SIGINT, signal.default_int_handler)
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
