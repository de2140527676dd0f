"""Run a command and print its exit code, own peak RSS and CPU time.

    python tools/own_peak.py -- CMD [ARG...]

CMD runs as a child of this small launcher, which imports nothing but the
standard library, so the peak is the command's own and not a harness's.
When the child ends, one line goes to stderr:

    exit 0  peak 190.3 MB  cpu 3.21 s

The peak is ``ru_maxrss`` from ``os.wait4``: the largest resident set of
the child and of any process it started and waited for. The CPU time is
the child's user plus system time, its waited-for processes' included.
The launcher exits with the child's exit code (128 + N when signal N
ended it), and with 127 when CMD cannot be started.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    command = argv[1:]
    if command[:1] == ["--"]:
        command = command[1:]
    if not command:
        print("usage: python tools/own_peak.py -- CMD [ARG...]", file=sys.stderr)
        return 2
    try:
        pid = os.posix_spawnp(command[0], command, os.environ)
    except OSError as exc:
        print(f"own_peak: cannot start {command[0]}: {exc}", file=sys.stderr)
        return 127
    _pid, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    print(f"exit {code}  peak {usage.ru_maxrss / 1024:.1f} MB  "
          f"cpu {usage.ru_utime + usage.ru_stime:.2f} s", file=sys.stderr)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
