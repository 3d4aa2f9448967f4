"""numpy's OpenBLAS through ctypes: the one place nlkpp calls foreign code.

numpy's linalg extension links the BLAS and LAPACK that numpy calls, so its
handle resolves their symbols. nlkpp takes two things from it: the OpenBLAS
thread count, which :func:`_one_blas_thread` pins, and LAPACK's banded
Cholesky, which the diffusion solve calls through :func:`_banded_cholesky`.
"""

import contextlib
import ctypes
import functools
import itertools

import numpy as np

from .errors import NumericalError


@functools.cache
def _library() -> ctypes.CDLL:
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@functools.cache
def _thread_functions() -> tuple | None:
    """The ``(get, set)`` thread-count functions of numpy's OpenBLAS; None
    where its library exports neither naming."""
    lib = _library()
    for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread and restore its
    count afterwards.

    The Lanczos eigen certificate runs in it, so that its witness has the
    same bits whatever the threading and it does not wake numpy's thread
    pool. A sweep runs its points in it: a sweep's parallelism is its points,
    and with ``jobs`` workers each running a multithreaded BLAS, the threads
    outnumber the cores and spin against each other; ``jobs=1`` runs at one
    thread too, so that a dense eigensolve, whose last bits follow the thread
    count, gives the same rows for every ``jobs``. No environment variable is
    read or set. Where numpy's library has no OpenBLAS thread functions the
    block runs as it is.
    """
    functions = _thread_functions()
    count = functions[0]() if functions else 1
    # a library already at one thread is left alone: in a forked sweep worker
    # any set call restarts OpenBLAS's thread pool, whose threads then spin
    if count != 1:
        functions[1](1)
    try:
        yield
    finally:
        if count != 1:
            functions[1](count)


@functools.cache
def _numpy_lapack():
    """``(dpbtrf, dpbtrs, integer type)`` of the LAPACK that numpy has loaded;
    None where its library exports none of the names probed."""
    lib = _library()
    for name, integer in (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
                          ("{}_", ctypes.c_int)):
        pbtrf = getattr(lib, name.format("dpbtrf"), None)
        pbtrs = getattr(lib, name.format("dpbtrs"), None)
        if pbtrf is not None and pbtrs is not None:
            # no argtypes: _banded_cholesky builds every argument with its exact
            # ctypes type, once per factor, and checking ten of them on each
            # call cost 0.5 us of a 4 us solve
            pbtrf.restype = pbtrs.restype = None
            return pbtrf, pbtrs, integer
    return None


def _banded_cholesky():
    """LAPACK's upper banded Cholesky as ``(pbtrf, pbtrs)``: ``pbtrf(ab, b)``
    factors the Fortran-ordered band ``ab`` (diagonal last) in place and
    returns ``(factor, info)``; ``pbtrs(factor)`` overwrites ``b``, the
    buffer it was factored with, by the solution and returns LAPACK's info.

    The routines are those of the LAPACK that numpy has loaded, called with
    every argument built once per factor. A numpy whose library exports
    neither is a :class:`NumericalError` naming the routines and the library.
    """
    found = _numpy_lapack()
    if found is None:
        raise NumericalError(
            f"LAPACK dpbtrf/dpbtrs, the diffusion solve's banded Cholesky, is "
            f"not exported by numpy's library {np.linalg._umath_linalg.__file__} "
            f"(probed scipy_dpbtrf_64_, dpbtrf_64_ and dpbtrf_)")
    trf, trs, integer = found
    # the upper triangle, and the hidden length of that one-character argument
    upper, length = ctypes.c_char_p(b"U"), ctypes.c_size_t(1)

    def pbtrf(ab, b):
        if not (ab.dtype == b.dtype == np.float64 and ab.flags.f_contiguous
                and b.flags.c_contiguous and b.shape == ab.shape[1:]):
            raise ValueError("pbtrf takes a Fortran-ordered float64 band and a "
                             "contiguous float64 vector of its length")
        ref = ctypes.byref
        n, kd, ld = integer(ab.shape[1]), integer(ab.shape[0] - 1), integer(ab.shape[0])
        info = integer()
        # data_as keeps its array alive, so the factor holds both buffers
        ab_p, b_p = ab.ctypes.data_as(ctypes.c_void_p), b.ctypes.data_as(ctypes.c_void_p)
        trf(upper, ref(n), ref(kd), ab_p, ref(ld), ref(info), length)
        args = (upper, ref(n), ref(kd), ref(integer(1)), ab_p, ref(ld), b_p, ref(n),
                ref(info), length)
        return (args, info), info.value

    def pbtrs(factor):
        args, info = factor
        trs(*args)
        return info.value
    return pbtrf, pbtrs
