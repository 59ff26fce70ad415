"""Shared compile-and-load discipline for on-demand C kernels.

One implementation behind _cfsst.py and _cfc.py (the review rule:
build-discipline fixes must not be made twice). The contract callers
rely on: ANY failure — no gcc, unwritable /tmp, a corrupt cached .so —
returns None, and the caller falls back to its pure-numpy path; the
kernel is compiled once into /tmp keyed on the source digest and
atomically published, so concurrent workers race safely.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import threading


def _cache_dir() -> str:
    """Per-user 0700 cache dir under the system tempdir.

    ctypes.CDLL on a world-writable shared /tmp path would let another
    local user pre-plant a .so at the predictable digest-derived name;
    a uid-suffixed directory created 0700 (and verified owned-by-us and
    non-world-writable if it already exists) closes that."""
    d = os.path.join(tempfile.gettempdir(), f"rayenc-native-{os.getuid()}")
    os.makedirs(d, mode=0o700, exist_ok=True)
    # lstat + S_ISDIR: a pre-planted SYMLINK at this name would pass an
    # os.stat uid/mode check against its victim target while our writes
    # land in the attacker-chosen directory
    st = os.lstat(d)
    import stat as _stat

    if not _stat.S_ISDIR(st.st_mode):
        raise NativeCacheDirError(f"native cache dir {d} is not a directory")
    if st.st_uid != os.getuid() or (st.st_mode & 0o022):
        raise NativeCacheDirError(f"native cache dir {d} has unsafe ownership/mode")
    return d


class NativeCacheDirError(RuntimeError):
    """The per-user native cache dir is pre-planted/unsafe. Deliberately
    NOT folded into the no-toolchain numpy fallback: silent fallback
    here would both mask a tampering attempt and cost ~30x decode
    throughput with no log line."""


def compile_and_load(prefix: str, c_src: str) -> ctypes.CDLL | None:
    """Compile ``c_src`` into a cached per-user .so and load it; None on
    any failure (the numpy-fallback contract) EXCEPT an unsafe cache
    dir, which raises NativeCacheDirError."""
    cache = _cache_dir()  # outside the try: security errors must not
    try:  # silently latch the numpy fallback
        digest = hashlib.sha256(c_src.encode()).hexdigest()[:16]
        so_path = os.path.join(cache, f"{prefix}_{digest}.so")
        if not os.path.exists(so_path):
            src = so_path + ".c"
            with open(src, "w") as f:
                f.write(c_src)
            tmp = so_path + f".tmp{os.getpid()}"
            subprocess.run(
                ["gcc", "-O3", "-shared", "-fPIC", "-o", tmp, src],
                check=True,
                capture_output=True,
                timeout=60,
            )
            os.replace(tmp, so_path)  # atomic: concurrent workers race safely
        return ctypes.CDLL(so_path)
    except Exception:
        return None


def once(load):
    """`load()` run once per process, its result (None included) kept:
    the kernel loaders' memo. The first call loads under a lock, so
    callers racing it (codec trials on a worker's pool threads) wait for
    that one load instead of compiling into the same staging file or
    reading a half-set result. A load that raises keeps nothing, so an
    unsafe cache dir raises on every call."""
    lock = threading.Lock()
    done: list = []

    @functools.wraps(load)
    def get():
        if not done:
            with lock:
                if not done:
                    done.append(load())
        return done[0]

    return get
