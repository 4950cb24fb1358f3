"""The compiled step kernel: kernel.c, built on first import, cached and
called through ctypes.

It is compiled with $CC, else sysconfig's CC, into $XDG_CACHE_HOME/streamrpca
(~/.cache/streamrpca), or a folder in the temp dir where that is not
writable, under a name keyed by the source, the interpreter and the compile
command. It calls BLAS and LAPACK through scipy's cython_blas/cython_lapack
capsules, so nothing is linked. ACTIVE is "compiled" once it is loaded and
"numpy" where it could not be built: projection, basis and trackers then run
their numpy code, which the tests keep as the oracle. The calls release the
interpreter lock. A step allocates no memory for scratch: a thread's scratch
is one array, grown to its largest shape, and array addresses are cached.
"""

import ctypes
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np
import scipy.linalg.cython_blas
import scipy.linalg.cython_lapack

SOURCE = Path(__file__).with_name("kernel.c")
ROUTINES = ("dgemv", "dgemm", "dsyrk", "ddot", "dpotrf", "dpotrs")


def _compile_command():
    """The compiler and flags that build kernel.c, without its file names:
    $CC, else sysconfig's CC, else cc."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return [*shlex.split(cc), "-O2", "-fPIC", "-shared", "-ffp-contract=off"]


def _library_name(command):
    """File name of the library that `command` builds from kernel.c, keyed
    by the source, the interpreter, EXT_SUFFIX and the command itself, so
    that a changed compiler or flag builds a new library."""
    key = hashlib.sha256(b"\0".join([
        SOURCE.read_bytes(), sys.version.encode(),
        str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
        *(arg.encode() for arg in command)])).hexdigest()
    return f"kernel-{key[:16]}.so"


def _build():
    """Path of the cached library, compiled first if need be; None if no
    cache folder is writable, $CC does not parse or the compiler fails."""
    try:
        command = _compile_command()
        name = _library_name(command)
    except (OSError, ValueError):
        return None
    home = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    for cache in (Path(home) / "streamrpca",
                  Path(tempfile.gettempdir()) / f"streamrpca-{os.getuid()}"):
        lib = cache / name
        tmp = cache / f"{lib.name}.{os.getpid()}"
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            if cache.stat().st_uid != os.getuid():
                continue
        except OSError:
            continue
        if lib.is_file():
            return lib
        try:
            subprocess.run([*command, "-o", str(tmp), str(SOURCE), "-lm"],
                           check=True, capture_output=True, timeout=300)
            os.replace(tmp, lib)
            return lib
        except (OSError, subprocess.SubprocessError):
            tmp.unlink(missing_ok=True)
            return None
    return None


def _load():
    path = _build()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    I, D, P = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    for name, restype, argtypes in [
            ("srp_bind", I, [P, I]),  # the ROUTINES in order, and their count
            ("srp_project", I, [I, I, P, P, D, D, D, I, P, P, P]),
            ("srp_accumulate", None, [I, I] + [P] * 9),
            ("srp_sweep", I, [I, I, P, P, P, D, I, D, P])]:
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = P
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    capi = {**scipy.linalg.cython_blas.__pyx_capi__,
            **scipy.linalg.cython_lapack.__pyx_capi__}
    fn = [api.PyCapsule_GetPointer(capi[n], api.PyCapsule_GetName(capi[n]))
          for n in ROUTINES]
    return lib if lib.srp_bind((P * len(fn))(*fn), len(fn)) == 0 else None


_lib = _load()
ACTIVE = "compiled" if _lib is not None else "numpy"
_local = threading.local()


def _space(m, r):
    """This thread's (x, v, s, work) arrays for rank r on dimension m and
    their addresses: views of its scratch array, grown to the largest shape."""
    if getattr(_local, "shape", None) != (m, r):
        n = 3 * r * r + 5 * r + 9 * m + m * r
        if getattr(_local, "scratch", np.empty(0)).size < n:
            _local.scratch = np.empty(n)
        arrays = np.split(_local.scratch, [m, m + r, 2 * m + r])
        _local.views = (*arrays, *(X.ctypes.data for X in arrays))
        _local.shape = (m, r)
    return _local.views


def _address(X, order):
    """Data address of a float64 array contiguous in order "C" or "F",
    looked up once per array object and thread."""
    addresses, key = _local.__dict__.setdefault("addresses", {}), id(X)
    hit = addresses.get(key)
    if hit is None or hit[0]() is not X:
        if X.dtype != np.float64 or not X.flags[order + "_CONTIGUOUS"]:
            raise ValueError(f"kernel: need a {order}-contiguous float64 "
                             "array")
        hit = addresses[key] = (
            weakref.ref(X, lambda _: addresses.pop(key, None)), X.ctypes.data)
    return hit[1]


def project(U, x, lambda1, lambda2, tol, max_iter):
    """project_sample's (v, s) and its number of alternations, for a float64
    U and an x that fits it; None where an input is not finite or a Cholesky
    factor fails (the numpy path solves by pivoting there)."""
    m, r = U.shape
    U = np.asfortranarray(U)  # held while the kernel reads it
    x_, v, s, _, px, pv, ps, pw = _space(m, r)
    x_[:] = x
    n = _lib.srp_project(m, r, _address(U, "F"), px, lambda1, lambda2, tol,
                         min(max_iter, 2**31 - 1), pv, ps, pw)
    return (v.copy(), s.copy(), n) if n > 0 else None


def accumulate(A, B, x, v, s, rows=None, head=0):
    """omw_step's update of A (r x r, C order) and B (m x r, F order) by
    (x, v, s); given the window's rows (M, V, S), less the sample in row
    head, which then takes (x, v, s)."""
    m, r = B.shape
    if A.shape != (r, r) or not x.shape == s.shape == (m,) or v.shape != (r,):
        raise ValueError("kernel: inconsistent accumulator shapes")
    x_, v_, s_, _, px, pv, ps, pw = _space(m, r)
    x_[:], v_[:], s_[:] = x, v, s
    old = [None] * 3 if rows is None else [
        _address(X, "C") + head * X.strides[0] for X in rows]
    _lib.srp_accumulate(m, r, _address(A, "C"), _address(B, "F"), px, pv, ps,
                        *old, pw)


def sweep(U, A, B, lambda1, sweeps, sym_tol):
    """update_basis's sweeps on U in place; False, U untouched, if A is not
    symmetric to sym_tol * (1 + max|A|)."""
    m, r = U.shape
    Uf = np.asfortranarray(U)  # these are held while the kernel reads them
    A, B = np.ascontiguousarray(A, float), np.asfortranarray(B, float)
    done = _lib.srp_sweep(m, r, _address(Uf, "F"), _address(A, "C"),
                          _address(B, "F"), lambda1, sweeps, sym_tol,
                          _space(m, r)[7]) == 0
    if Uf is not U:
        U[...] = Uf
    return done
