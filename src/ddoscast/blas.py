"""The OpenBLAS libraries loaded in this process, and their thread counts.

numpy's matrix products run on OpenBLAS, whose thread count is one setting
for the whole process. ``grid`` pins it to one thread in each worker,
``lstm.train`` pins it for the duration of a call that evaluates on a
second thread, and ``lstm.predict_series`` for its prediction; all find
the libraries through ``openblas_threads``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

# Imported for its side effect: numpy's bundled OpenBLAS is loaded before
# the probe first looks, so a cached answer can never miss it.
import numpy  # noqa: F401


@functools.cache
def openblas_threads() -> tuple:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS library loaded in this process.

    Probed once per process; a forked child inherits the answer along with
    the libraries. numpy's bundled build exports the functions as
    ``scipy_openblas_{get,set}_num_threads64_`` (the ``scipy_`` prefix
    names the scipy-openblas wheel numpy ships, not scipy), a system build
    as plain ``openblas_{get,set}_num_threads``. Empty when no library is
    found or one of them lacks either function.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return ()
    pairs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        pair = [_first_symbol(lib, verb) for verb in ("get", "set")]
        if None in pair:
            return ()
        get, set_ = pair
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pairs.append((get, set_))
    return tuple(pairs)


def _first_symbol(lib: ctypes.CDLL, verb: str):
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            name = f"{prefix}openblas_{verb}_num_threads{suffix}"
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run every loaded OpenBLAS library on one thread, then restore each one's count."""
    pairs = openblas_threads()
    counts = [get() for get, _set in pairs]
    for _get, set_ in pairs:
        set_(1)
    try:
        yield
    finally:
        for (_get, set_), count in zip(pairs, counts):
            set_(count)
