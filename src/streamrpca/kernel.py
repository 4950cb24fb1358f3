"""The compiled step kernel: kernel.c, built on first import as a CPython
extension module and cached.

It is compiled with $CC, else sysconfig's CC, against Python's headers into
$XDG_CACHE_HOME/streamrpca (~/.cache/streamrpca), or a folder in the temp dir
where that is not writable, under a name keyed by the source, the
interpreter and the compile command. It calls BLAS and LAPACK in the
OpenBLAS that numpy has loaded, scipy-openblas64, whose routines it finds by
name (scipy_<name>_64_, 64-bit integers), so nothing is linked and numpy
and the kernel share one library and one thread pool. ACTIVE is "compiled"
once it is loaded and "numpy" where it could not be built (no compiler, or
no Python headers) or numpy calls another BLAS: projection, basis,
trackers, prox and pcp then run their numpy code, which the tests keep as
the oracle.

The module's project, accumulate, sweep and svt take the arrays themselves,
check their dtype, order and shape in C (raising ValueError), and each
entry point allocates its routine's scratch before it releases the
interpreter lock. alm_input and alm_update are the two elementwise passes
of each pcp_alm sweep: the SVT input, and everything after L, both norms'
sums included, so that a sweep's m x n arithmetic runs in two loops over
pcp_alm's four arrays (L, Y, S and the SVT input).
"""

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernel.c")
ROUTINES = ("dgemv", "dgemm", "dsyrk", "ddot", "dgeqrf", "dorgqr", "dgesdd",
            "dpotrf", "dpotrs", "dsyevd")


def _compile_command():
    """The compiler and flags that build kernel.c, without its file names:
    $CC, else sysconfig's CC, else cc, with Python's include folders."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    paths = sysconfig.get_paths()
    includes = dict.fromkeys((paths["include"], paths["platinclude"]))
    return [*shlex.split(cc), "-O3", "-fPIC", "-shared", "-ffp-contract=off",
            *(f"-I{folder}" for folder in includes)]


def _library_name(command):
    """File name of the module that `command` builds from kernel.c, keyed
    by the source, the interpreter, EXT_SUFFIX and the command itself, so
    that a changed compiler, flag or include folder builds a new one."""
    key = hashlib.sha256(b"\0".join([
        SOURCE.read_bytes(), sys.version.encode(),
        str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
        *(arg.encode() for arg in command)])).hexdigest()
    return f"kernel-{key[:16]}.so"


def _build():
    """Path of the cached module, compiled first if need be; None if no
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


def _routines():
    """The addresses of the ROUTINES, in order, in numpy's scipy-openblas64:
    dlsym on numpy.linalg's LAPACK module searches the libraries it links.
    ImportError, OSError or AttributeError where numpy calls another BLAS."""
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    return [ctypes.cast(getattr(lib, f"scipy_{name}_64_"), ctypes.c_void_p)
            .value for name in ROUTINES]


def _load():
    path = _build()
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader("streamrpca._kernel",
                                                     str(path))
    try:
        ext = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader))
        ext.bind(*_routines())  # ValueError unless it is handed ten
    except (ImportError, OSError, AttributeError, ValueError):
        return None
    return ext


_ext = _load()
ACTIVE = "compiled" if _ext is not None else "numpy"


def project(U, x, lambda1, lambda2, tol, max_iter):
    """project_sample's (v, s) and its number of alternations, for a float64
    U and an x that fits it; None where an input, U'U or U'x is not finite
    (the numpy path rejects them) or a Cholesky factor fails (the numpy path
    solves by LU with pivoting)."""
    m, r = U.shape
    v, s = np.empty(r), np.empty(m)
    n = _ext.project(np.asfortranarray(U), np.ascontiguousarray(x), v, s,
                     lambda1, lambda2, tol, max_iter)
    return (v, s, n) if n > 0 else None


def accumulate(A, B, x, v, s, *oldest):
    """omw_step's update of A (r x r, C order) and B (m x r, F order) by
    (x, v, s); given the window's oldest row (e_old, v_old), 1-d views, less
    its terms, and the row then takes (x - s, v)."""
    _ext.accumulate(A, B, np.ascontiguousarray(x), v, s, *oldest)


def sweep(U, A, B, lambda1, sym_tol):
    """update_basis's sweep of U in place; False, U untouched, if A is not
    finite or not symmetric to sym_tol * (1 + max|A|)."""
    Uf = np.asfortranarray(U)
    done = _ext.sweep(Uf, np.ascontiguousarray(A, float),
                      np.asfortranarray(B, float), lambda1, sym_tol)
    if Uf is not U:
        U[...] = Uf
    return done


def svt_warm(X, tau, block, max_steps, guard_tol, ritz_tol, gram_min_ratio):
    """svt_factors' warm loop (prox._svt_warm_numpy) in one call, bit for bit:
    the (U, s, Vh) of the step it accepts, or (None, s, Vh) of its last step
    where it declines; raises LinAlgError where LAPACK fails, as numpy
    does."""
    (m, n), k = X.shape, block.shape[1]
    U, s, Vh = np.empty((m, k)), np.empty(k), np.empty((k, n))
    # numpy's matmul multiplies by an F-order block transposed, and by the
    # Gram path's reversed views as C-order copies
    if not block.flags.f_contiguous:
        block = np.ascontiguousarray(block)
    steps = _ext.svt(np.ascontiguousarray(X), block, U, s, Vh, tau, max_steps,
                     guard_tol, ritz_tol, gram_min_ratio)
    if steps < 0:
        raise np.linalg.LinAlgError("SVD did not converge" if steps == -1
                                    else "Eigenvalues did not converge")
    return (U if steps else None), s, Vh


def alm_input(M, S, Y, mu, out):
    """pcp_alm's SVT input (M - S) + Y / mu into out, bit for bit as numpy
    forms it (pcp._alm_input_numpy); M, S, Y and out C-order."""
    _ext.alm_input(M, S, Y, mu, out)


def alm_update(M, L, Y, S, mu, lam):
    """pcp._alm_update_numpy in one pass, S and Y bit for bit: writes the
    shrunk S and the updated Y in place and returns (sum r^2, sum (S -
    S_old)^2), summed by rows in the pass, so they differ from numpy's
    in the last bits. M, L, Y and S C-order."""
    return _ext.alm_update(M, L, Y, S, mu, lam)
