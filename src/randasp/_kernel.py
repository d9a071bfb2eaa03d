"""Build, cache and call the compiled search kernel `_search.c`.

The first `load()` in a process compiles the C source once with the system
`cc` into a private cache directory and loads it with ctypes.  The directory
is the `randasp` leaf of `$XDG_CACHE_HOME` (if set to an absolute path) or
of `~/.cache`, made with mode 0o700 only when that root already exists;
otherwise it is `randasp-<uid>` under `tempfile.gettempdir()`.  A library is
loaded only from a directory that is not a symlink, is owned by the current
user and is writable by no one else.  The file name carries the SHA-256 of
the source, the compiler command and the machine type, so a changed source
is rebuilt and an unchanged one is compiled once per machine.  Each build
writes a temporary file and renames it into place, so processes that build
at the same time (pool workers) never load a partial file.  Where no
compiler or no private directory is found, `load()` returns None and the
caller searches in Python.  Only `solver` imports this module, and only when
it first searches, so `import randasp` loads no ctypes and compiles nothing.
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

CC = ("cc", "-O2", "-shared", "-fPIC", "-x", "c", "-")  # source on stdin
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
    """The kernel's `randasp_search` function, or None where it cannot be built."""
    cache = cache_dir()
    if cache is None:
        return None
    src = source()
    key = sha256(b"\0".join([src, " ".join(CC).encode(), platform.machine().encode()])).hexdigest()
    path = cache / f"search-{key[:32]}.so"
    try:
        if not path.exists():
            _build(src, path)
        fn = ctypes.CDLL(str(path)).randasp_search
    except (OSError, subprocess.CalledProcessError):  # no compiler, or it failed
        return None
    fn.argtypes = [ctypes.c_int32, ctypes.c_int64, _INT32, _INT32, LEAF, _INT64]
    fn.restype = ctypes.c_int
    return fn


def search(n: int, heads: list[int], bodies: list[int], on_leaf) -> tuple[int, int]:
    """Run the kernel on `heads[i] <- not bodies[i]` over n < 2^29 atoms.

    `on_leaf(smask)` gets each leaf's IN atoms as an int mask and returns
    True to stop.  Returns the kernel's (propagate calls, apply calls).  An
    exception from `on_leaf` stops the search and is raised here.
    """
    fn = load()
    nbytes = (n + 7) // 8
    errors = []

    def leaf(bits):
        try:
            return bool(on_leaf(int.from_bytes(ctypes.string_at(bits, nbytes), "little")))
        except BaseException as exc:  # C cannot unwind it: stop, then raise it below
            errors.append(exc)
            return True

    counts = np.zeros(2, dtype=np.int64)
    h, b = np.asarray(heads, dtype=np.int32), np.asarray(bodies, dtype=np.int32)
    callback = LEAF(leaf)  # held until the call returns
    if fn(n, h.size, h, b, callback, counts) != 0:
        raise MemoryError("search kernel is out of memory")
    if errors:
        raise errors[0]
    return int(counts[0]), int(counts[1])
