"""The compiled step kernel: kernel.c, built on first import as a CPython
extension module and cached.

It is compiled with $CC, else sysconfig's CC, against Python's headers into
$XDG_CACHE_HOME/streamrpca (~/.cache/streamrpca), or a folder in the temp dir
where that is not writable, under a name keyed by the source, the
interpreter and the compile command. It calls BLAS and LAPACK through
scipy's cython_blas/cython_lapack capsules, so nothing is linked; those two
modules are loaded from scipy's linalg folder, so scipy.linalg itself is not
imported. ACTIVE is "compiled" once it is loaded and "numpy" where it could
not be built (no compiler, or no Python headers): projection, basis and
trackers then run their numpy code, which the tests keep as the oracle.

The module's project, accumulate and sweep take the arrays themselves,
check their dtype, order and shape in C (raising ValueError), and each
entry point allocates its routine's scratch before it releases the
interpreter lock.
"""

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
ROUTINES = ("dgemv", "dgemm", "dsyrk", "ddot", "dpotrf", "dpotrs")


def _compile_command():
    """The compiler and flags that build kernel.c, without its file names:
    $CC, else sysconfig's CC, else cc, with Python's include folders."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    paths = sysconfig.get_paths()
    includes = dict.fromkeys((paths["include"], paths["platinclude"]))
    return [*shlex.split(cc), "-O2", "-fPIC", "-shared", "-ffp-contract=off",
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


def _capsules():
    """The capsules of the ROUTINES, in order, from scipy's cython_blas and
    cython_lapack, loaded straight from scipy's linalg folder: importing
    them as submodules would run scipy/linalg/__init__.py, which imports
    all of scipy.linalg."""
    folders = [os.path.join(folder, "linalg") for folder in
               importlib.util.find_spec("scipy").submodule_search_locations]
    capi = {}
    for name in ("scipy.linalg.cython_blas", "scipy.linalg.cython_lapack"):
        spec = importlib.machinery.PathFinder.find_spec(name, folders)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        capi.update(module.__pyx_capi__)
    return [capi[name] for name in ROUTINES]


def _load():
    path = _build()
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader("streamrpca._kernel",
                                                     str(path))
    try:
        ext = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader))
        ext.bind(*_capsules())  # ValueError unless it is handed six
    except (ImportError, AttributeError, KeyError, ValueError):
        return None
    return ext


_ext = _load()
ACTIVE = "compiled" if _ext is not None else "numpy"


def project(U, x, lambda1, lambda2, tol, max_iter):
    """project_sample's (v, s) and its number of alternations, for a float64
    U and an x that fits it; None where an input, U'U or U'x is not finite
    (the numpy path rejects them) or a Cholesky factor fails (the numpy path
    solves by pivoting there)."""
    m, r = U.shape
    v, s = np.empty(r), np.empty(m)
    n = _ext.project(np.asfortranarray(U), np.ascontiguousarray(x), v, s,
                     lambda1, lambda2, tol, max_iter)
    return (v, s, n) if n > 0 else None


def accumulate(A, B, x, v, s, *oldest):
    """omw_step's update of A (r x r, C order) and B (m x r, F order) by
    (x, v, s); given the window's oldest row as three 1-d views (m_old,
    v_old, s_old), less that row's terms, and the row then takes (x, v, s).
    """
    _ext.accumulate(A, B, np.ascontiguousarray(x), v, s, *oldest)


def sweep(U, A, B, lambda1, sym_tol):
    """update_basis's sweep of U in place; False, U untouched, if A is not
    symmetric to sym_tol * (1 + max|A|)."""
    Uf = np.asfortranarray(U)
    done = _ext.sweep(Uf, np.ascontiguousarray(A, float),
                      np.asfortranarray(B, float), lambda1, sym_tol)
    if Uf is not U:
        U[...] = Uf
    return done
