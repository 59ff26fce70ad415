"""Native FSST match kernels, compiled on demand with the system gcc.

FSST's inner loops (greedy longest-symbol match on encode, token
expansion on decode) are strictly sequential per byte — the one place
Python/numpy cannot be vectorized honestly (SURVEY.md §7.3 called FSST
"the riskiest" codec for exactly this reason). The kernel is ~60 lines
of dependency-free C99 compiled once into /tmp with the toolchain that
ships in the image (nothing is installed); every worker process loads
the cached .so via ctypes. If no compiler is present, callers fall back
to the pure-numpy pass-based encoder (rayenc/codecs/fsst.py).

Symbols are byte strings of length 1..8 (the FSST paper's bound), at
most 255 of them; tokens are uint16: 0..255 literal bytes, 256+i for
symbol i.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ._cnative import compile_and_load, once

_C_SRC = r"""
#include <stdint.h>
#include <string.h>

/* greedy longest-match tokenizer.
   data/offsets: concatenated strings (offsets has n_strings+1 entries).
   syms: 255*8 bytes of symbol payloads; sym_lens: length per symbol.
   out_tokens must hold >= total_bytes entries; out_counts n_strings.
   returns total token count. */
long long fsst_encode(const unsigned char *data, const long long *offsets,
                      long long n_strings, const unsigned char *syms,
                      const unsigned char *sym_lens, int n_syms,
                      unsigned short *out_tokens, long long *out_counts) {
    /* per-first-byte candidate index, longest first */
    int head[256];
    int nxt[255];
    for (int b = 0; b < 256; b++) head[b] = -1;
    /* insert in increasing length so lists end up longest-first */
    for (int pass_len = 1; pass_len <= 8; pass_len++) {
        for (int s = 0; s < n_syms; s++) {
            if (sym_lens[s] != pass_len) continue;
            int b = syms[s * 8];
            nxt[s] = head[b];
            head[b] = s;
        }
    }
    long long t = 0;
    for (long long i = 0; i < n_strings; i++) {
        long long pos = offsets[i], end = offsets[i + 1];
        long long t0 = t;
        while (pos < end) {
            int b = data[pos];
            long long remain = end - pos;
            int best = -1;
            for (int s = head[b]; s != -1; s = nxt[s]) {
                int L = sym_lens[s];
                if (L <= remain && memcmp(data + pos, syms + s * 8, L) == 0) {
                    best = s;
                    break; /* longest-first order */
                }
            }
            if (best >= 0) {
                out_tokens[t++] = (unsigned short)(256 + best);
                pos += sym_lens[best];
            } else {
                out_tokens[t++] = (unsigned short)b;
                pos += 1;
            }
        }
        out_counts[i] = t - t0;
    }
    return t;
}

/* LSB-first bit packing of uint16 tokens, identical layout to the numpy
   pack_bits format (width <= 16). out must hold (n*width+7)/8 bytes. */
void fsst_pack(const unsigned short *tokens, long long n, int width,
               unsigned char *out) {
    unsigned int acc = 0;
    int bits = 0;
    long long o = 0;
    for (long long i = 0; i < n; i++) {
        acc |= ((unsigned int)tokens[i]) << bits;
        bits += width;
        while (bits >= 8) {
            out[o++] = (unsigned char)(acc & 0xff);
            acc >>= 8;
            bits -= 8;
        }
    }
    if (bits > 0) out[o++] = (unsigned char)(acc & 0xff);
}

void fsst_unpack(const unsigned char *in, long long n, int width,
                 unsigned short *out) {
    unsigned int acc = 0;
    int bits = 0;
    long long ipos = 0;
    unsigned int mask = (1u << width) - 1u;
    for (long long i = 0; i < n; i++) {
        while (bits < width) {
            acc |= ((unsigned int)in[ipos++]) << bits;
            bits += 8;
        }
        out[i] = (unsigned short)(acc & mask);
        acc >>= width;
        bits -= width;
    }
}

/* fused decode: unpack width-bit LSB-first tokens straight into expanded
   bytes, accumulating per-row byte lengths — the full-decode hot path.
   Avoids materializing the u16 token array and the per-token length
   gather + cumsum (the two dominant numpy costs). out_cap must include
   8 slack bytes past the true size: symbols are copied with a fixed
   8-byte memcpy (word copy) and the cursor advanced by the real length.
   returns total bytes written, -1 on output overflow, -2 on a token id
   past the symbol table (corrupt blob). */
long long fsst_unpack_expand(const unsigned char *in, int width,
                             const long long *row_counts, long long n_rows,
                             const unsigned char *syms,
                             const unsigned char *sym_lens, int n_syms,
                             unsigned char *out, long long out_cap,
                             long long *row_lens) {
    unsigned int acc = 0;
    int bits = 0;
    long long ipos = 0;
    unsigned int mask = (1u << width) - 1u;
    long long o = 0;
    for (long long r = 0; r < n_rows; r++) {
        long long o0 = o;
        long long cnt = row_counts[r];
        for (long long k = 0; k < cnt; k++) {
            while (bits < width) {
                acc |= ((unsigned int)in[ipos++]) << bits;
                bits += 8;
            }
            unsigned int tok = acc & mask;
            acc >>= width;
            bits -= width;
            if (tok < 256u) {
                if (o + 1 > out_cap) return -1;
                out[o++] = (unsigned char)tok;
            } else {
                int s = (int)tok - 256;
                if (s >= n_syms) return -2;
                if (o + 8 > out_cap) return -1;
                memcpy(out + o, syms + (long long)s * 8, 8);
                o += sym_lens[s];
            }
        }
        row_lens[r] = o - o0;
    }
    return o;
}

/* expand tokens back to bytes; out must hold the exact decoded size. */
long long fsst_decode(const unsigned short *tokens, long long n_tokens,
                      const unsigned char *syms, const unsigned char *sym_lens,
                      int n_syms, unsigned char *out) {
    long long o = 0;
    for (long long t = 0; t < n_tokens; t++) {
        unsigned short tok = tokens[t];
        if (tok < 256) {
            out[o++] = (unsigned char)tok;
        } else {
            int s = tok - 256;
            int L = sym_lens[s];
            memcpy(out + o, syms + (long long)s * 8, L);
            o += L;
        }
    }
    return o;
}
"""

@once
def get_lib():
    """ctypes handle to the kernel, or None when no toolchain exists."""
    lib = compile_and_load("rayenc_cfsst", _C_SRC)
    if lib is None:
        return None
    LL = ctypes.c_longlong
    U8P = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    U16P = np.ctypeslib.ndpointer(np.uint16, flags="C_CONTIGUOUS")
    LLP = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    lib.fsst_encode.restype = LL
    lib.fsst_encode.argtypes = [U8P, LLP, LL, U8P, U8P, ctypes.c_int, U16P, LLP]
    lib.fsst_decode.restype = LL
    lib.fsst_decode.argtypes = [U16P, LL, U8P, U8P, ctypes.c_int, U8P]
    lib.fsst_pack.restype = None
    lib.fsst_pack.argtypes = [U16P, LL, ctypes.c_int, U8P]
    lib.fsst_unpack.restype = None
    lib.fsst_unpack.argtypes = [U8P, LL, ctypes.c_int, U16P]
    lib.fsst_unpack_expand.restype = LL
    lib.fsst_unpack_expand.argtypes = [
        U8P, ctypes.c_int, LLP, LL, U8P, U8P, ctypes.c_int, U8P, LL, LLP,
    ]
    return lib


def pack_symbols(symbols: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(255*8 payload matrix, lens) for the kernel."""
    syms = np.zeros((max(len(symbols), 1), 8), dtype=np.uint8)
    lens = np.zeros(max(len(symbols), 1), dtype=np.uint8)
    for i, s in enumerate(symbols):
        b = np.frombuffer(s, dtype=np.uint8)
        syms[i, : len(b)] = b
        lens[i] = len(b)
    return np.ascontiguousarray(syms.reshape(-1)), lens


def native_encode(
    data: np.ndarray, offsets: np.ndarray, symbols: list[bytes]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Greedy longest-match tokenize; returns (tokens u16, counts i64)."""
    lib = get_lib()
    if lib is None:
        return None
    n_strings = len(offsets) - 1
    syms, lens = pack_symbols(symbols)
    data = np.ascontiguousarray(data, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    out_tokens = np.empty(max(int(offsets[-1]), 1), dtype=np.uint16)
    out_counts = np.empty(max(n_strings, 1), dtype=np.int64)
    total = lib.fsst_encode(
        data if data.size else np.zeros(1, np.uint8),
        offsets,
        n_strings,
        syms,
        lens,
        len(symbols),
        out_tokens,
        out_counts,
    )
    return out_tokens[:total].copy(), out_counts[:n_strings]


def native_pack(tokens: np.ndarray, width: int) -> bytes | None:
    """LSB-first bit packing (identical layout to codecs.util.pack_bits)."""
    lib = get_lib()
    if lib is None or width > 16:
        return None
    tokens = np.ascontiguousarray(tokens, dtype=np.uint16)
    n = len(tokens)
    out = np.zeros((n * width + 7) // 8, dtype=np.uint8)
    if n:
        lib.fsst_pack(tokens, n, width, out)
    return out.tobytes()


def native_unpack(buf: bytes, width: int, n: int) -> np.ndarray | None:
    lib = get_lib()
    if lib is None or width > 16:
        return None
    out = np.empty(max(n, 1), dtype=np.uint16)
    if n:
        raw = np.ascontiguousarray(np.frombuffer(buf, dtype=np.uint8))
        lib.fsst_unpack(raw, n, width, out)
    return out[:n]


def native_unpack_expand(
    buf: bytes,
    width: int,
    token_counts: np.ndarray,
    symbols: list[bytes],
    out_size: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Fused bit-unpack + token expansion for the full-decode path:
    (decoded byte stream, per-row byte lengths), or None when no kernel.
    Raises ValueError on a corrupt blob (bad token id, size mismatch)
    rather than returning garbage."""
    lib = get_lib()
    if lib is None or width > 16:
        return None
    token_counts = np.ascontiguousarray(token_counts, dtype=np.int64)
    n_rows = len(token_counts)
    # an aggregate-only check would accept compensating negatives
    # ([2**20, 12-2**20] sums fine) and drive the kernel's inner loop
    # into an unbounded OOB read before any guard fires
    if n_rows and int(token_counts.min()) < 0:
        raise ValueError("fsst blob corrupt: negative token count")
    ntok = int(token_counts.sum())
    raw = np.ascontiguousarray(np.frombuffer(buf, dtype=np.uint8))
    if len(raw) < (ntok * width + 7) // 8:
        raise ValueError(
            f"fsst blob corrupt: {len(raw)} token bytes < "
            f"{(ntok * width + 7) // 8} needed for {ntok} tokens @ w={width}"
        )
    syms, lens = pack_symbols(symbols)
    # +8 slack: the kernel copies symbols with a fixed 8-byte word memcpy
    out = np.empty(out_size + 8, dtype=np.uint8)
    row_lens = np.empty(max(n_rows, 1), dtype=np.int64)
    n = lib.fsst_unpack_expand(
        raw if raw.size else np.zeros(1, np.uint8),
        width,
        token_counts if n_rows else np.zeros(1, np.int64),
        n_rows,
        syms,
        lens,
        len(symbols),
        out,
        out_size + 8,
        row_lens,
    )
    if n == -2:
        raise ValueError("fsst blob corrupt: token id past the symbol table")
    if n != out_size:
        raise ValueError(
            f"fsst blob corrupt: decoded {n} bytes, expected {out_size}"
        )
    return out[:out_size], row_lens[:n_rows]


def native_decode(
    tokens: np.ndarray, symbols: list[bytes], out_size: int
) -> np.ndarray | None:
    lib = get_lib()
    if lib is None:
        return None
    syms, lens = pack_symbols(symbols)
    tokens = np.ascontiguousarray(tokens, dtype=np.uint16)
    out = np.empty(max(out_size, 1), dtype=np.uint8)
    n = lib.fsst_decode(
        tokens if tokens.size else np.zeros(1, np.uint16),
        len(tokens),
        syms,
        lens,
        len(symbols),
        out,
    )
    assert n == out_size, (n, out_size)
    return out[:out_size]
