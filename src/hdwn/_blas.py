"""One BLAS thread for the code whose bits must not follow the BLAS thread count."""

import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# the BLAS thread count is process-wide, so the state of its pin is too
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@functools.cache
def _openblas():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS, or None.

    Loaded on first use so that importing hdwn stays cheap. Opening the
    library numpy already holds returns that same instance, so the calls act
    on the BLAS behind numpy's matrix products.
    """
    import ctypes

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextmanager
def _single_threaded_blas():
    """Run the body with OpenBLAS at one thread, then restore the caller's count.

    Overlapping scopes from several threads share one pin: the first to
    enter saves the count and the last to leave restores it. Without the
    bundled OpenBLAS the body runs unpinned.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        api = _openblas()
        if _blas_depth == 0 and api is not None:
            _blas_saved = api[0]()
            api[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and api is not None:
                api[1](_blas_saved)
