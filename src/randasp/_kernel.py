"""Build, cache and call the compiled kernel `_search.c`.

The kernel has two entry points: `randasp_search`, the search of
`solver._Searcher`, called through `search`, and `randasp_sample`, the skip
walk of `generate`, called through `sample`.  The first `load()` in a
process compiles the C source once with the system `cc` into a private
cache directory and loads it with ctypes.  The directory is the `randasp`
leaf of `$XDG_CACHE_HOME` (if set to an absolute path) or of `~/.cache`,
made with mode 0o700 only when that root already exists; otherwise it is
`randasp-<uid>` under `tempfile.gettempdir()`.  A library is loaded only
from a directory that is not a symlink, is owned by the current user and is
writable by no one else.  The file name carries the SHA-256 of the source,
the compiler command and the machine type, so a changed source is rebuilt
and an unchanged one is compiled once per machine.  Each build writes a
temporary file and renames it into place, so processes that build at the
same time (pool workers) never load a partial file.  Where no compiler or
no private directory is found, `load()` returns None and the callers fall
back to Python: `solver` searches with `_Searcher`, and `generate` takes
its scalar walk.  Only `solver` and `generate` import this module, each when
it first searches or samples, so `import randasp` loads no ctypes and
compiles nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import stat
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

# The interpreter's own SHA-256: hashlib loads OpenSSL, about 3.5 MB of RSS
# in every pool worker.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

# source on stdin; -lm names the libm whose `log` the sampler calls
CC = ("cc", "-O2", "-shared", "-fPIC", "-x", "c", "-", "-lm")
LEAF = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)  # (IN bitmask) -> stop?
_INT32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INT64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")


def source() -> bytes:
    """The C source, read from the installed package."""
    return resources.files(__package__).joinpath("_search.c").read_bytes()


def _private_dir(root: str, leaf: str) -> Path | None:
    """root/leaf, made with mode 0o700 if missing, if it is a directory only this user can write.

    The root itself is never created: a missing or relative root gives None.
    """
    if not os.path.isabs(root):
        return None
    path = Path(root) / leaf
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        st = path.lstat()
    except OSError:  # root missing or not writable, or leaf not a directory
        return None
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path


def cache_dir() -> Path | None:
    """The directory the kernel is built into and loaded from, or None if there is none."""
    if not hasattr(os, "getuid"):  # no owner to check
        return None
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    root = xdg if os.path.isabs(xdg) else os.path.join(os.path.expanduser("~"), ".cache")
    return _private_dir(root, "randasp") or _private_dir(tempfile.gettempdir(), f"randasp-{os.getuid()}")


def _build(src: bytes, path: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run([*CC, "-o", tmp], input=src, capture_output=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load():
    """The kernel library with `randasp_search` and `randasp_sample` bound, or None where it cannot be built."""
    cache = cache_dir()
    if cache is None:
        return None
    src = source()
    key = sha256(b"\0".join([src, " ".join(CC).encode(), platform.machine().encode()])).hexdigest()
    path = cache / f"search-{key[:32]}.so"
    try:
        if not path.exists():
            _build(src, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError):  # no compiler, or it failed
        return None
    lib.randasp_search.argtypes = [ctypes.c_int32, ctypes.c_int64, _INT32, _INT32, LEAF, _INT64]
    lib.randasp_search.restype = ctypes.c_int
    lib.randasp_sample.argtypes = [
        ctypes.c_uint64, ctypes.c_int32, ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.randasp_sample.restype = ctypes.c_int64
    return lib


def search(n: int, heads: np.ndarray, bodies: np.ndarray, on_leaf) -> tuple[int, int]:
    """Run the kernel on the rules `heads[i] <- not bodies[i]` over n < 2^29 atoms.

    `heads` and `bodies` are a program's `n2_arrays`: int32, C-contiguous,
    of one length below 2^31 (the kernel's offsets are int32), every atom in
    [0, n), and sorted by head, which `Program` guarantees; they are passed
    to C as they are, and C reads `bodies` in place as each head's bodies.
    `on_leaf(packed)` gets each leaf's IN atoms as a little-endian bitmask
    of (n + 7) // 8 bytes and returns True to stop.  Returns the kernel's
    (propagate calls, apply calls).  An exception from `on_leaf` stops the
    search and is raised here.
    """
    if heads.shape != bodies.shape:
        raise ValueError(f"heads and bodies differ in shape: {heads.shape} vs {bodies.shape}")
    if heads.size >= 1 << 31:
        raise ValueError(f"the search kernel takes fewer than 2^31 rules, got {heads.size}")
    fn = load().randasp_search
    nbytes = (n + 7) // 8
    errors = []

    def leaf(bits):
        try:
            return bool(on_leaf(ctypes.string_at(bits, nbytes)))
        except BaseException as exc:  # C cannot unwind it: stop, then raise it below
            errors.append(exc)
            return True

    counts = np.zeros(2, dtype=np.int64)
    callback = LEAF(leaf)  # held until the call returns
    if fn(n, heads.size, heads, bodies, callback, counts) != 0:
        raise MemoryError("search kernel is out of memory")
    if errors:
        raise errors[0]
    return int(counts[0]), int(counts[1])


def sample(seed: int, n: int, log_p: float, log_d: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(heads, bodies) of the program that `randasp_sample` draws from stream `seed` over n < 2^31 atoms.

    `log_p` and `log_d` are log1p(-p) and log1p(-d), or 0.0 where that
    probability is 0.  The rules are written into a buffer of `cap` first;
    when there are more, into a buffer of their exact count, from the same
    stream.  Returns two views of one int32 buffer.
    """
    if n >= 1 << 31:
        raise ValueError(f"the sampler takes fewer than 2^31 atoms, got n={n}")
    fn = load().randasp_sample
    out = np.empty((2, cap), dtype=np.int32)
    count = fn(seed, n, log_p, log_d, cap, out.ctypes.data)
    if count > cap:
        out = np.empty((2, count), dtype=np.int32)
        fn(seed, n, log_p, log_d, count, out.ctypes.data)
    return out[0, :count], out[1, :count]
