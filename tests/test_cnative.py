"""Security posture of the shared native compile-and-load helper.

The per-user cache dir under the system tempdir is the one place this
repo loads executable code from disk; a pre-planted symlink or
foreign-owned directory there must fail LOUDLY (NativeCacheDirError),
never silently fall back to numpy (which would both mask the tampering
attempt and cost ~30x decode throughput with no log line)."""

from __future__ import annotations

import os

import pytest

from rayenc.codecs import _cnative


def _patched_tmp(monkeypatch, tmp_path):
    monkeypatch.setattr(
        _cnative.tempfile, "gettempdir", lambda: str(tmp_path)
    )
    return os.path.join(str(tmp_path), f"rayenc-native-{os.getuid()}")


def test_cache_dir_rejects_preplanted_symlink(monkeypatch, tmp_path):
    target = tmp_path / "victim"
    target.mkdir(mode=0o700)
    d = _patched_tmp(monkeypatch, tmp_path)
    os.symlink(str(target), d)
    # os.stat would follow the link and pass the uid/mode check against
    # the victim dir; lstat must reject the symlink itself
    with pytest.raises(_cnative.NativeCacheDirError, match="not a directory"):
        _cnative._cache_dir()
    # and compile_and_load must NOT swallow it into the None fallback
    with pytest.raises(_cnative.NativeCacheDirError):
        _cnative.compile_and_load("t", "int x;")


def test_cache_dir_rejects_world_writable(monkeypatch, tmp_path):
    d = _patched_tmp(monkeypatch, tmp_path)
    os.makedirs(d, mode=0o777)
    os.chmod(d, 0o777)  # makedirs honors umask; force the unsafe mode
    with pytest.raises(_cnative.NativeCacheDirError, match="unsafe"):
        _cnative._cache_dir()


def test_cache_dir_accepts_and_creates_safe_dir(monkeypatch, tmp_path):
    d = _patched_tmp(monkeypatch, tmp_path)
    got = _cnative._cache_dir()
    assert got == d
    st = os.lstat(d)
    assert st.st_mode & 0o777 == 0o700
    # idempotent on the safe dir
    assert _cnative._cache_dir() == d


def test_once_loads_once_for_racing_callers():
    """Threads racing the first call share one load and its result; a
    load that raises keeps nothing, so it raises again next call."""
    import threading
    import time

    calls = []

    def load():
        calls.append(1)
        time.sleep(0.05)
        return "lib"

    get = _cnative.once(load)
    out = []
    threads = [threading.Thread(target=lambda: out.append(get())) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert out == ["lib"] * 8 and calls == [1]
    boom = _cnative.once(lambda: 1 / 0)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            boom()
