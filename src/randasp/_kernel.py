"""Build, cache and call the compiled kernel `_search.c`, which every draw, search and sweep trial runs on.

The kernel's entry points, with their wrappers here: `randasp_sample`, the
skip walk of `generate` (`sample`), and `randasp_enumerate`, the search of
`solver.enumerate_answer_sets` (`enumerate`), each hand back one buffer,
which `_take` copies and frees: a program's rules in (head, body) order, or
every leaf the search reaches, unchecked.  `randasp_trial`, one whole sweep
trial of `experiments` (`trial`), is those two in a row and then one pass
that checks every leaf and tallies; `randasp_check`, the two answer-set
conditions, is bound by `load()` for tests to call.  No entry point calls
back into Python, and each call gives up the GIL.  Callers pass their own
values: `_model` and `_limit` encode a `LinearModelParams` and a leaf limit
for C.  The wrappers check every array they hand to C (type, dtype,
contiguity and shape) and pass raw pointers, cheaper than `ndpointer`.

The first `load()` in a process compiles the C source once with the system
`cc` into a private cache directory and loads it with ctypes; the threads
of a sweep share that one library.  The directory is the `randasp` leaf of
`$XDG_CACHE_HOME` (if set to an absolute path) or of `~/.cache`, made with
mode 0o700 only when that root already exists; otherwise it is
`randasp-<uid>` under `tempfile.gettempdir()`.  A library is loaded only
from a directory that is not a symlink, is owned by the current user and is
writable by no one else.  The file name carries the SHA-256 of the source,
the compiler command and the machine type, so a changed source is rebuilt
and an unchanged one is compiled once per machine.  Each build writes a
temporary file and renames it into place, so separate processes that build
at the same time never load a partial file.  Where no private directory is
found or the compiler fails, `load()` raises RuntimeError, naming the
directories tried or the compiler command and its first line of error
output, and so does every draw, search and sweep; there is no second
execution to fall back to.  The failure is kept, so the compiler runs once
per process either way.  Only `solver`, `generate` and `experiments`
import this module, each when it first searches, samples or sweeps, so
`import randasp` loads no ctypes and compiles nothing.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import platform
import stat
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from . import generate

# The interpreter's own SHA-256: hashlib loads OpenSSL, which adds about
# 3.6 MiB to the peak RSS of the process (the sweep's threads share it).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

# source on stdin; -lm names the libm whose `log` the sampler calls
CC = ("cc", "-O2", "-shared", "-fPIC", "-x", "c", "-", "-lm")
_COUNTS = ctypes.c_int64 * 2  # randasp_enumerate's propagate calls and apply calls
MAX_N = 1 << 29  # the search's queue entries are int32 `atom << 2 | value`


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


def cache_dir() -> Path:
    """The directory the kernel is built into and loaded from; RuntimeError, naming the directories tried, if none will do."""
    tried = []
    if hasattr(os, "getuid"):  # else there is no owner to check
        xdg = os.environ.get("XDG_CACHE_HOME", "")
        cache_root = xdg if os.path.isabs(xdg) else os.path.join(os.path.expanduser("~"), ".cache")
        for root, leaf in ((cache_root, "randasp"), (tempfile.gettempdir(), f"randasp-{os.getuid()}")):
            if path := _private_dir(root, leaf):
                return path
            tried.append(os.path.join(root, leaf))
    raise RuntimeError(f"the search kernel needs a directory that only this user can write; tried: {', '.join(tried) or 'none'}")


def _build(src: bytes, path: Path) -> None:
    """Compile `src` into `path`; RuntimeError, naming the compiler command and why it failed, if it fails."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so")
    os.close(fd)
    try:
        try:
            subprocess.run([*CC, "-o", tmp], input=src, capture_output=True, check=True)
        except FileNotFoundError:
            why = "not found"
        except subprocess.CalledProcessError as error:
            why = next(iter(error.stderr.decode(errors="replace").splitlines()), f"exit status {error.returncode}")
        else:
            os.replace(tmp, path)
            return
        raise RuntimeError(f"the search kernel needs a C compiler, and `{' '.join(CC)}` failed: {why}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib):
    """`lib` with the argument and result types of the kernel's entry points set."""
    i32, i64, f64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for fn, argtypes, restype in (
        (lib.randasp_enumerate, [i32, i64, ptr, ptr, i64, ptr, _COUNTS], i64),
        (lib.randasp_free, [ptr], None),
        (lib.randasp_sample, [ctypes.c_uint64, i32, f64, f64, ptr], i64),
        (lib.randasp_trial, [ctypes.c_uint64, i32, f64, f64, i64, i64, ptr, ptr], ctypes.c_int),
        (lib.randasp_check, [i32, i64, ptr, ptr, ctypes.c_char_p], ctypes.c_int),
    ):
        fn.argtypes, fn.restype = argtypes, restype
    return lib


@functools.cache
def _library():
    """The kernel library with its entry points bound, or the RuntimeError that says why it cannot be built."""
    try:
        src = source()
        key = sha256(b"\0".join([src, " ".join(CC).encode(), platform.machine().encode()])).hexdigest()
        path = cache_dir() / f"search-{key[:32]}.so"
        if not path.exists():
            _build(src, path)
    except RuntimeError as error:
        return error
    return _bind(ctypes.CDLL(str(path)))


def load():
    """The kernel library with its entry points bound, built on the first call; RuntimeError, naming the cause, if it cannot be.

    A failure is kept as a success is: every later call raises the same
    text without running the compiler again, until `load.cache_clear()`.
    """
    lib = _library()
    if isinstance(lib, RuntimeError):
        raise RuntimeError(*lib.args)
    return lib


load.cache_clear, load.cache_info = _library.cache_clear, _library.cache_info


def _require_array(name: str, a, dtype) -> None:
    """Raise TypeError unless `a` is a C-contiguous ndarray of `dtype`: what C reads through a bare pointer."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(a).__name__}")
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(f"{name} must be a C-contiguous {np.dtype(dtype)} array, got {a.dtype}")


def _require_searchable(n: int) -> None:
    """Raise ValueError unless the search takes n atoms: fewer than `MAX_N`."""
    if n >= MAX_N:
        raise ValueError(f"the search kernel takes fewer than 2^29 atoms, got n={n}")


def _limit(limit: int | None) -> int:
    """`limit` as C takes it: 0 for None (every leaf), and clamped to int64, since no search reaches 2^63 leaves."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    return min(limit or 0, (1 << 63) - 1)


def _model(params: generate.LinearModelParams) -> tuple[int, float, float]:
    """(n, log1p(-p), log1p(-d)): the model as `randasp_sample` and `randasp_trial` take it after the seed."""
    if not isinstance(params, generate.LinearModelParams):
        raise TypeError(f"params must be a LinearModelParams, got {type(params).__name__}")
    return params.n, math.log1p(-params.p), math.log1p(-params.d)


def _take(call, width: int) -> tuple[bytes, int]:
    """(bytes, count) of the `count` items of `width` bytes that `call(out)` leaves at `out`, which is then freed."""
    out = ctypes.c_void_p()  # stays NULL unless C allocates
    try:  # an interrupt raised as the call returns must not leak the buffer
        count = call(ctypes.byref(out))
        if count < 0:
            raise MemoryError("the kernel is out of memory")
        return ctypes.string_at(out, count * width), count
    finally:
        load().randasp_free(out)


def enumerate(n: int, heads: np.ndarray, bodies: np.ndarray, limit: int | None) -> tuple[np.ndarray, int, int]:
    """Run the kernel on the rules `heads[i] <- not bodies[i]` over n < 2^29 atoms.

    `heads` and `bodies` are a program's `n2_arrays`: 1-D, int32,
    C-contiguous, of one length below 2^31 (the kernel's offsets are int32),
    every atom in [0, n), and sorted by head, which `Program` guarantees;
    they are passed to C as they are, and C reads `bodies` in place as each
    head's bodies.  Returns (masks, propagate calls, apply calls): `masks`
    holds every leaf the search reaches, unchecked, up to `limit` (None:
    all), in the form `solver._Searcher.run` returns: a uint8 array with one
    row per leaf, in tree order, each the leaf's IN atoms as a little-endian
    bitmask of (n + 7) // 8 bytes.  The search is one C call, so a Ctrl-C is
    raised once it returns.
    """
    _require_searchable(n)
    if np.shape(heads) != np.shape(bodies):
        raise ValueError(f"heads and bodies differ in shape: {np.shape(heads)} vs {np.shape(bodies)}")
    if np.ndim(heads) != 1:
        raise ValueError(f"heads and bodies must be 1-D, got shape {np.shape(heads)}")
    if np.size(heads) >= 1 << 31:
        raise ValueError(f"the search kernel takes fewer than 2^31 rules, got {np.size(heads)}")
    _require_array("heads", heads, np.int32)
    _require_array("bodies", bodies, np.int32)
    limit, nbytes, counts = _limit(limit), (n + 7) // 8, _COUNTS()
    search = functools.partial(load().randasp_enumerate, n, heads.size, heads.ctypes.data, bodies.ctypes.data, limit)
    packed, leaves = _take(lambda out: search(out, counts), nbytes)
    return np.frombuffer(packed, np.uint8).reshape(leaves, nbytes), counts[0], counts[1]


def sample(seed: int, params: generate.LinearModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(heads, bodies) of the program that `randasp_sample` draws for `params` (n < 2^31) from stream `seed`.

    Two int32 views of one read-only buffer, in the (head, body) order of `Program.from_n2_arrays`.
    """
    n, log_p, log_d = _model(params)
    if n >= 1 << 31:
        raise ValueError(f"the sampler takes fewer than 2^31 atoms, got n={n}")
    rules, count = _take(functools.partial(load().randasp_sample, seed, n, log_p, log_d), 8)
    return tuple(np.frombuffer(rules, np.int32).reshape(2, count))


# randasp_trial's error codes
_NO_MEMORY, _NO_PROGRAM, _OVERFLOW, _TOO_MANY_RULES, _STOPPED, _REJECTED = -1, -2, -3, -4, -5, -6


class Stopped(Exception):
    """A kernel trial ended early because its stop flag was set."""


def trial(params: generate.LinearModelParams, limit: int | None, sums: np.ndarray, stop=None):
    """`run(seed)`, which runs sweep trial `seed` of `params` in `randasp_trial` and adds it into `sums`.

    A trial over n < 2^29 atoms draws as `sample` does, up to
    `generate._MAX_RESAMPLE` attempts (read here), attempt a from sub-seed
    `mix_seed(seed, a)`; searches the draw as `enumerate` does, keeping at
    most `limit` leaves (None: all); then checks each leaf with
    `randasp_check` and adds the trial into `sums`, an int64 array of n + 4:
    the count of answer sets, its square, the attempts before the nonempty
    draw and the sets' histogram by size, the integers that
    `generate_with_stats` and `enumerate_answer_sets` give for that seed.
    `stop` is a `ctypes.c_int32` (None: one never set) that C reads at each
    decision; another thread sets it to end every trial that reads it, and
    `run` then raises `Stopped`.  `run` raises RuntimeError when every draw
    is empty (`generate_with_stats`' text) or a leaf fails its check, and
    OverflowError where a sum would leave int64; `sums` then holds part of
    the trial.  Trials in other threads run alongside, as C drops the GIL.
    """
    n, log_p, log_d = _model(params)
    _require_searchable(n)
    limit, max_draws = _limit(limit), generate._MAX_RESAMPLE
    _require_array("sums", sums, np.int64)
    if sums.shape != (n + 4,) or not sums.flags.writeable:
        raise ValueError(f"sums must be a writeable array of shape ({n + 4},), got {sums.shape}")
    fn = load().randasp_trial
    stop = ctypes.c_int32(0) if stop is None else stop
    if not isinstance(stop, ctypes.c_int32):
        raise TypeError(f"stop must be a ctypes.c_int32, got {type(stop).__name__}")
    args = (n, log_p, log_d, max_draws, limit, sums.ctypes.data, ctypes.addressof(stop))

    def run(seed: int, _keep=(sums, stop)) -> None:  # _keep: C reads and writes them, so they live as long as `run`
        rc = fn(seed, *args)
        if rc:
            raise {
                _NO_MEMORY: MemoryError("the kernel is out of memory"),
                _NO_PROGRAM: RuntimeError(f"no nonempty program after {max_draws} resamples"),
                _OVERFLOW: OverflowError("a trial's sum leaves int64"),
                _TOO_MANY_RULES: ValueError("the search kernel takes fewer than 2^31 rules"),
                _STOPPED: Stopped("the trial's stop flag was set"),
                _REJECTED: RuntimeError("the search reached a leaf that is not an answer set"),
            }[rc]

    return run
