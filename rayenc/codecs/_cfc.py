"""Native front-coding kernels, compiled on demand with the system gcc.

Front coding's hot paths are strictly row-sequential (compare each row
with its predecessor; rebuild each row from its predecessor's decoded
bytes) — in numpy they cost either a padded comparison matrix or a
per-byte-column pass, both overhead-bound at 8k-row blocks. The kernel
is ~40 lines of dependency-free C99 compiled once into /tmp (same
discipline as _cfsst.py: atomic replace, every worker loads the cached
.so via ctypes; no toolchain -> callers fall back to the pure-numpy
paths in fc.py).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ._cnative import compile_and_load, once

_C_SRC = r"""
#include <stdint.h>
#include <string.h>

/* shared-prefix length of each row vs its predecessor, capped at
   window; row 0 -> 0. data/offsets: concatenated rows. */
void fc_prefixes(const unsigned char *data, const long long *offsets,
                 long long n, int window, long long *prefs) {
    if (n > 0) prefs[0] = 0;
    for (long long i = 1; i < n; i++) {
        long long s = offsets[i], e = offsets[i + 1];
        long long ps = offsets[i - 1];
        long long lim = e - s;
        long long plen = offsets[i] - ps;
        if (plen < lim) lim = plen;
        if (window < lim) lim = window;
        const unsigned char *a = data + s, *b = data + ps;
        long long p = 0;
        while (p < lim && a[p] == b[p]) p++;
        prefs[i] = p;
    }
}

/* gather each row's post-prefix suffix bytes into one buffer;
   returns total suffix bytes written. */
long long fc_suffixes(const unsigned char *data, const long long *offsets,
                      const long long *prefs, long long n,
                      unsigned char *out) {
    long long o = 0;
    for (long long i = 0; i < n; i++) {
        long long s = offsets[i] + prefs[i];
        long long len = offsets[i + 1] - s;
        memcpy(out + o, data + s, len);
        o += len;
    }
    return o;
}

/* rebuild rows in order: prefix bytes copy from the predecessor's
   already-decoded output, suffix bytes stream from the payload.
   out_off has n+1 entries (cumulative prefs[i]+suf_lens[i]). */
void fc_decode(const unsigned char *payload, const long long *prefs,
               const long long *suf_lens, const long long *out_off,
               long long n, unsigned char *out) {
    long long p = 0;
    for (long long i = 0; i < n; i++) {
        if (prefs[i])
            memcpy(out + out_off[i], out + out_off[i - 1], prefs[i]);
        memcpy(out + out_off[i] + prefs[i], payload + p, suf_lens[i]);
        p += suf_lens[i];
    }
}
"""

@once
def get_lib():
    """ctypes handle to the kernel, or None when no toolchain exists."""
    lib = compile_and_load("rayenc_cfc", _C_SRC)
    if lib is None:
        return None
    LL = ctypes.c_longlong
    U8P = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    LLP = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    lib.fc_prefixes.restype = None
    lib.fc_prefixes.argtypes = [U8P, LLP, LL, ctypes.c_int, LLP]
    lib.fc_suffixes.restype = LL
    lib.fc_suffixes.argtypes = [U8P, LLP, LLP, LL, U8P]
    lib.fc_decode.restype = None
    lib.fc_decode.argtypes = [U8P, LLP, LLP, LLP, LL, U8P]
    return lib


def _c_buf(a: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    return out if out.size else np.zeros(1, dtype=dtype)


def native_prefixes(
    data: np.ndarray, offsets: np.ndarray, window: int
) -> np.ndarray | None:
    lib = get_lib()
    if lib is None:
        return None
    n = len(offsets) - 1
    prefs = np.zeros(max(n, 1), dtype=np.int64)
    if n > 0:
        lib.fc_prefixes(
            _c_buf(data, np.uint8), _c_buf(offsets, np.int64), n, window, prefs
        )
    return prefs[:n]


def native_suffixes(
    data: np.ndarray, offsets: np.ndarray, prefs: np.ndarray
) -> np.ndarray | None:
    lib = get_lib()
    if lib is None:
        return None
    n = len(offsets) - 1
    total = int(offsets[-1] - offsets[0] - prefs.sum()) if n else 0
    out = np.empty(max(total, 1), dtype=np.uint8)
    if n > 0:
        wrote = lib.fc_suffixes(
            _c_buf(data, np.uint8),
            _c_buf(offsets, np.int64),
            _c_buf(prefs, np.int64),
            n,
            out,
        )
        assert wrote == total, (wrote, total)
    return out[:total]


def native_decode(
    payload: np.ndarray,
    prefs: np.ndarray,
    suf_lens: np.ndarray,
    out_off: np.ndarray,
    out: np.ndarray,
) -> bool:
    """Fill ``out`` in place; False when no toolchain exists.

    Validates section consistency first — the C kernel trusts its
    inputs, so a corrupt blob must fail loudly HERE (parity with the
    numpy fallback, which raises on the same shapes) rather than
    memcpy past the payload or read before the output buffer."""
    n = len(prefs)
    if n:
        if int(prefs[0]) != 0:
            raise ValueError("fc blob corrupt: first row has nonzero prefix")
        if prefs.min() < 0 or suf_lens.min() < 0:
            raise ValueError("fc blob corrupt: negative length")
        if int(suf_lens.sum()) != len(payload):
            raise ValueError(
                f"fc blob corrupt: payload {len(payload)} bytes, "
                f"suffix lengths sum to {int(suf_lens.sum())}"
            )
        # A prefix longer than the previous (already-decoded) row would
        # make the C kernel memcpy bytes past that row's end — in-buffer
        # but overlapping/undefined, returning garbage instead of the
        # loud failure this function promises.
        if n > 1 and np.any(prefs[1:] > (prefs + suf_lens)[:-1]):
            raise ValueError(
                "fc blob corrupt: prefix exceeds previous row length"
            )
    lib = get_lib()
    if lib is None:
        return False
    if n == 0:
        return True
    lib.fc_decode(
        _c_buf(payload, np.uint8),
        _c_buf(prefs, np.int64),
        _c_buf(suf_lens, np.int64),
        _c_buf(out_off, np.int64),
        n,
        out if out.size else np.zeros(1, dtype=np.uint8),
    )
    return True
