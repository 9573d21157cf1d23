"""Thread count of the BLAS under numpy, for work too small to share.

On grids up to M = 22 (dimension n = M^2 <= SERIAL_MAX_DIM) the pair
witnesses multiply and decompose n x n and n x r matrices, and the
corepresentation residual multiplies on one axis of (d, n, <= 2r) tensors.  There the
BLAS threads buy little: on two CPUs a 400 x 400 complex SVD takes 47 ms
on two threads and 50 ms on one, and an ``exp-identity --M-list
8,12,16,20`` run 0.37 s against 0.44 s.  They also make every call wait
on whichever thread the system has descheduled: with another process busy
on one of the two CPUs that run took 1.0 s on two threads and 0.44 s on
one.  :func:`for_dim` runs such work on one thread, so its time does not
hang on the load of the other CPUs, and leaves larger work as it is.

Put every BLAS call of the work inside the block.  After a threaded call
OpenBLAS's idle workers spin for about 0.1 s before they sleep, and one
threaded 100 x 400 product per run left outside (the window check of a
new pair) kept a worker spinning next to the serial work and made the
whole run a third slower.

The thread controls are looked up in numpy's own BLAS (the library that
numpy's core extension links).  Where that is not OpenBLAS, or the
controls are missing, :func:`for_dim` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Iterator

__all__ = ["SERIAL_MAX_DIM", "for_dim"]

SERIAL_MAX_DIM = 512   # largest matrix dimension run on one BLAS thread

# exported names of (get, set) in OpenBLAS builds: the scipy-openblas wheels
# numpy ships with, 64-bit-integer builds, and plain builds
_CONTROL_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _controls():
    """(get, set) of numpy's OpenBLAS thread count, or None."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)   # symbol lookup covers its dependencies
    except OSError:
        return None
    for get_name, set_name in _CONTROL_NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def for_dim(dim: int) -> Iterator[None]:
    """Run the block, on one BLAS thread when its matrices are at most
    `dim` x `dim` with `dim` <= SERIAL_MAX_DIM; the thread count is
    restored on exit."""
    controls = _controls() if dim <= SERIAL_MAX_DIM else None
    threads = controls[0]() if controls is not None else 1
    if threads <= 1:
        yield
        return
    controls[1](1)
    try:
        yield
    finally:
        controls[1](threads)
