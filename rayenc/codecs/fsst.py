"""FSST-style symbol-table string compression.

After "FSST: Fast Random Access String Compression" (VLDB 2020, see
PAPERS.md): replace frequent byte sequences (symbols of 1..8 bytes, at
most 255 of them — the paper's bounds) with one-token codes; the symbol
table ships in the block header, so encode workers stay stateless /
restart-safe (SURVEY.md §2.3 T1).

Structure:
- TRAIN (numpy): greedy pair-merging over a bounded sample builds the
  symbol table bottom-up; merges whose combined symbol would exceed
  8 bytes are excluded (keeps the native matcher's memcmp bounded).
- ENCODE: greedy longest-match tokenization via the native C kernel
  (rayenc/codecs/_cfsst.py, compiled on demand with the system gcc) —
  the per-byte loop that cannot be vectorized honestly in numpy
  (SURVEY.md §7.3). Fallback when no toolchain exists: simultaneous
  table-lookup passes over the code stream (whole-array numpy,
  sentinel-protected string boundaries — the analog of the reference
  keeping record boundaries intact across read_records calls,
  /root/reference/src/vec_pq_reader.rs:157-241).
- DECODE: token -> symbol expansion (native kernel, numpy gather
  fallback). Bit-identical round-trip either way; native and fallback
  may tokenize differently, which decode does not care about.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import _cfsst
from .base import Codec, is_stringlike
from .util import (
    bit_width,
    decode_lengths,
    encode_lengths,
    pack_bits_z,
    strings_from_parts,
    string_array_parts,
    unpack_bits_z,
    zstd_compress,
    zstd_decompress,
)

_SENT = np.int32(-1)
_PAIR_BASE = np.int64(1 << 16)
_MAX_SYM_LEN = 8
_MAX_SYMBOLS = 255


class FsstCodec(Codec):
    name = "fsst"

    TRAIN_BYTES = 64 << 10

    def __init__(self, max_merges: int = _MAX_SYMBOLS, min_count_frac: float = 1 / 1024):
        self.max_merges = min(max_merges, _MAX_SYMBOLS)
        self.min_count_frac = min_count_frac

    def supports(self, t: pa.DataType) -> bool:
        return is_stringlike(t)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    @staticmethod
    def _dedup_overlaps(idxs: np.ndarray, lc: int, rc: int) -> np.ndarray:
        """Keep alternate matches within overlapping runs like 'aaaa'."""
        if lc != rc or len(idxs) == 0:
            return idxs
        new_run = np.empty(len(idxs), dtype=bool)
        new_run[0] = True
        np.greater(np.diff(idxs), 1, out=new_run[1:])
        run_id = np.cumsum(new_run) - 1
        run_start = idxs[new_run][run_id]
        return idxs[((idxs - run_start) % 2) == 0]

    def _train(
        self, codes: np.ndarray, min_count: int
    ) -> tuple[list[tuple[int, int]], list[bytes]]:
        """Greedy pair-merge training on a bounded sample. Returns the
        merge sequence (for the numpy fallback) and the symbol byte
        strings (for the native matcher + block table); merges that
        would exceed the 8-byte symbol bound are banned."""
        codes = codes.copy()
        merges: list[tuple[int, int]] = []
        symbols: list[bytes] = []
        sym_of: dict[int, bytes] = {}
        banned: set[int] = set()
        while len(merges) < self.max_merges:
            left, right = codes[:-1], codes[1:]
            valid = (left != _SENT) & (right != _SENT)
            vpos = np.flatnonzero(valid)
            if len(vpos) == 0:
                break
            vkeys = left[vpos].astype(np.int64) * _PAIR_BASE + right[vpos]
            uniq, counts = np.unique(vkeys, return_counts=True)
            order = np.argsort(counts)[::-1]
            chosen = None
            for oi in order[:16]:  # few tries: banned pairs are rare
                key = int(uniq[oi])
                if counts[oi] < min_count:
                    break
                if key in banned:
                    continue
                lc, rc = key >> 16, key & 0xFFFF
                sl = sym_of.get(lc, bytes([lc]) if lc < 256 else b"")
                sr = sym_of.get(rc, bytes([rc]) if rc < 256 else b"")
                if len(sl) + len(sr) > _MAX_SYM_LEN:
                    banned.add(key)
                    continue
                chosen = (key, lc, rc, sl + sr)
                break
            if chosen is None:
                break
            key, lc, rc, sym = chosen
            idxs = self._dedup_overlaps(vpos[vkeys == key], lc, rc)
            new_code = 256 + len(merges)
            codes[idxs] = new_code
            merges.append((lc, rc))
            symbols.append(sym)
            sym_of[new_code] = sym
            codes = np.delete(codes, idxs + 1)
        return merges, symbols

    # ------------------------------------------------------------------
    # numpy fallback tokenizer (no C toolchain)
    # ------------------------------------------------------------------

    def _apply_passes(self, codes: np.ndarray, merges: list[tuple[int, int]]) -> np.ndarray:
        """Collapse every table pair present in the stream, whole-array
        per pass, overlaps resolved by run parity; ~log(symbol length)
        passes. Sentinel-adjacent keys are negative and never match."""
        tk = np.array([(lc << 16) + rc for (lc, rc) in merges], dtype=np.int32)
        tv = np.arange(256, 256 + len(merges), dtype=np.int32)
        order = np.argsort(tk)
        tk, tv = tk[order], tv[order]
        tk_ext = np.append(tk, np.int32(2**31 - 1))
        while len(codes) > 1:
            keys = codes[:-1] << np.int32(16)
            keys += codes[1:]
            pos = np.searchsorted(tk, keys)
            hit = tk_ext[pos] == keys
            hidx = np.flatnonzero(hit)
            if len(hidx) == 0:
                break
            new_run = np.empty(len(hidx), dtype=bool)
            new_run[0] = True
            np.greater(np.diff(hidx), 1, out=new_run[1:])
            run_id = np.cumsum(new_run) - 1
            run_start = hidx[new_run][run_id]
            kept = hidx[((hidx - run_start) % 2) == 0]
            codes[kept] = tv[pos[kept]]
            keep_mask = np.ones(len(codes), dtype=bool)
            keep_mask[kept + 1] = False
            codes = codes[keep_mask]
        return codes

    def _fallback_tokens(
        self, data: np.ndarray, lengths: np.ndarray, merges: list[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(lengths)
        total = int(data.size)
        codes = np.full(total + n, _SENT, dtype=np.int32)
        if total:
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                np.arange(n, dtype=np.int64), lengths
            )
            codes[idx] = data
        if merges:
            codes = self._apply_passes(codes, merges)
        sent_pos = np.flatnonzero(codes == _SENT)
        token_counts = np.diff(np.concatenate([[-1], sent_pos])) - 1
        tokens = codes[codes != _SENT].astype(np.uint16)
        return tokens, token_counts.astype(np.int64)

    # ------------------------------------------------------------------
    # codec interface
    # ------------------------------------------------------------------

    def encode(self, arr: pa.Array, level: int = 3) -> tuple[dict, dict[str, bytes]]:
        data, lengths = string_array_parts(arr)
        n = len(lengths)
        total = int(data.size)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])

        # train on rows stride-sampled across the WHOLE column (a prefix
        # sample is biased: edge rows or one giant blob at the front can
        # dominate the pair statistics), capped at TRAIN_BYTES, with any
        # single row contributing at most TRAIN_BYTES/8
        row_cap = self.TRAIN_BYTES // 8
        pieces: list[np.ndarray] = []
        t_lengths_list: list[int] = []
        budget = min(total, self.TRAIN_BYTES)
        if n and budget:
            stride = max(1, n // 512)
            for i in range(0, n, stride):
                if budget <= 0:
                    break
                take = min(int(lengths[i]), row_cap, budget)
                if take <= 0:
                    continue
                s = int(offsets[i])
                pieces.append(data[s : s + take])
                t_lengths_list.append(take)
                budget -= take
        t_lengths = np.asarray(t_lengths_list, dtype=np.int64)
        t_total = int(t_lengths.sum()) if len(t_lengths) else 0
        t_end = len(t_lengths)
        t_codes = np.full(t_total + t_end, _SENT, dtype=np.int32)
        if t_total:
            idx = np.arange(t_total, dtype=np.int64) + np.repeat(
                np.arange(t_end, dtype=np.int64), t_lengths
            )
            t_codes[idx] = np.concatenate(pieces)
        min_count = max(8, int(max(t_total, 1) * self.min_count_frac))
        merges, symbols = self._train(t_codes, min_count)

        native = _cfsst.native_encode(data, offsets, symbols) if symbols else None
        if native is not None:
            tokens, token_counts = native
        else:
            tokens, token_counts = self._fallback_tokens(data, lengths, merges)

        w = bit_width(255 + len(symbols))
        tmeta, tbuf = encode_lengths(token_counts, level)
        table = bytes(bytearray([len(s) for s in symbols])) + b"".join(symbols)
        params = {
            "n_sym": len(symbols),
            "table_len": len(table),
            "w": w,
            "ntokens": int(len(tokens)),
            "nbytes": total,  # decoded size: lets decode pre-size its
            # output and take the fused native path (legacy blocks
            # without it fall back to the gather/cumsum skeleton)
            "tmeta": tmeta,
        }
        packed = _cfsst.native_pack(tokens, w)
        if packed is None:
            from .util import pack_bits

            packed = pack_bits(tokens.astype(np.uint64), w)
        sections = {
            "tokens": zstd_compress(packed, level),
            "token_counts": tbuf,
            "table": zstd_compress(table, level),
        }
        return params, sections

    @staticmethod
    def _symbols(params: dict, sections: dict[str, bytes]) -> list[bytes]:
        n_sym = params["n_sym"]
        raw = zstd_decompress(sections["table"], params["table_len"])
        lens = raw[:n_sym]
        out = []
        pos = n_sym
        for L in lens:
            out.append(raw[pos : pos + L])
            pos += L
        return out

    def _token_stream(
        self, params: dict, sections: dict[str, bytes], n: int
    ) -> tuple[np.ndarray, np.ndarray, list[bytes], np.ndarray]:
        """(token seq, per-row token counts, symbols, per-code byte lens) —
        the cheap integer skeleton of the block, shared by full and
        random-access decode."""
        ntok = params["ntokens"]
        w = params["w"]
        raw = zstd_decompress(sections["tokens"], (ntok * w + 7) // 8)
        seq = _cfsst.native_unpack(raw, w, ntok)
        if seq is None:
            from .util import unpack_bits

            seq = unpack_bits(raw, w, ntok).astype(np.uint16)
        # tokens stay uint16 end-to-end: the int64 widening allocated two
        # extra multi-MB temporaries per block on the decode hot path
        token_counts = decode_lengths(params["tmeta"], sections["token_counts"], n)
        symbols = self._symbols(params, sections)
        sym_lens = np.ones(256 + len(symbols), dtype=np.int64)
        for i, s in enumerate(symbols):
            sym_lens[256 + i] = len(s)
        return seq, token_counts, symbols, sym_lens

    @staticmethod
    def _expand(seq: np.ndarray, symbols: list[bytes], sym_lens: np.ndarray):
        """Token sequence -> (byte stream, token-boundary cumsum).

        The per-token length gather + cumsum is the non-native decode hot
        spot (~1 token per 2.2 source bytes); an int32 skeleton halves its
        memory traffic. Symbol lengths are <= 8, so the int32 cumsum can
        only overflow past 2^31 expanded bytes — impossible under the
        32-bit-offset block cap enforced at encode (strings_from_parts)."""
        out_lens = sym_lens.astype(np.int32)[seq]
        cs = np.zeros(len(seq) + 1, dtype=np.int64)
        np.cumsum(out_lens, out=cs[1:])
        total_out = int(cs[-1])
        data = _cfsst.native_decode(np.ascontiguousarray(seq, dtype=np.uint16), symbols, total_out)
        if data is None:
            # numpy gather fallback: literals 0..255 + symbol payloads
            payload = bytes(range(256)) + b"".join(symbols)
            sym_data = np.frombuffer(payload, dtype=np.uint8)
            sym_off = np.zeros(257 + len(symbols), dtype=np.int64)
            np.cumsum(
                np.concatenate([np.ones(256, np.int64), sym_lens[256:]]),
                out=sym_off[1:],
            )
            base = np.repeat(cs[:-1], out_lens)
            within = np.arange(total_out, dtype=np.int64) - base
            src = np.repeat(sym_off[:-1][seq], out_lens) + within
            data = sym_data[src]
        return data, cs

    def decode(
        self, params: dict, sections: dict[str, bytes], n: int, typ: pa.DataType
    ) -> pa.Array:
        nbytes = params.get("nbytes")
        # availability-gated BEFORE the tokens decompress: without the
        # kernel the skeleton path below redoes both the zstd and the
        # token_counts decode — double work on the slowest path
        if nbytes is not None and _cfsst.get_lib() is not None and params["w"] <= 16:
            # fused native path: bit-packed buffer -> expanded bytes +
            # per-row lengths in ONE C pass — no u16 token array, no
            # per-token length gather/cumsum (those two dominated the
            # non-fused decode at ~56% of wall; measured 201 -> ~500 MB/s)
            ntok, w = params["ntokens"], params["w"]
            raw = zstd_decompress(sections["tokens"], (ntok * w + 7) // 8)
            token_counts = decode_lengths(params["tmeta"], sections["token_counts"], n)
            fused = _cfsst.native_unpack_expand(
                raw, w, token_counts, self._symbols(params, sections), nbytes
            )
            if fused is not None:
                data, str_lens = fused
                return strings_from_parts(data, str_lens, typ)
        seq, token_counts, symbols, sym_lens = self._token_stream(params, sections, n)
        data, cs = self._expand(seq, symbols, sym_lens)
        tok_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(token_counts, out=tok_off[1:])
        str_lens = cs[tok_off[1:]] - cs[tok_off[:-1]]
        return strings_from_parts(data, str_lens, typ)

    def decode_rows(
        self, params: dict, sections: dict[str, bytes], n: int, typ: pa.DataType, indices
    ) -> pa.Array:
        """FSST's headline property (VLDB 2020 §1): decode only the
        selected rows — the token skeleton is unpacked (cheap ints), but
        byte expansion runs over just the chosen rows' token ranges."""
        indices = np.asarray(indices, dtype=np.int64)
        seq, token_counts, symbols, sym_lens = self._token_stream(params, sections, n)
        tok_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(token_counts, out=tok_off[1:])
        counts_sel = token_counts[indices]
        total_tok = int(counts_sel.sum())
        if total_tok:
            out_start = np.zeros(len(indices), dtype=np.int64)
            np.cumsum(counts_sel[:-1], out=out_start[1:])
            within = np.arange(total_tok, dtype=np.int64) - np.repeat(
                out_start, counts_sel
            )
            sel_seq = seq[np.repeat(tok_off[indices], counts_sel) + within]
        else:
            sel_seq = np.empty(0, dtype=np.uint16)
        data, cs = self._expand(sel_seq, symbols, sym_lens)
        sel_off = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(counts_sel, out=sel_off[1:])
        str_lens = cs[sel_off[1:]] - cs[sel_off[:-1]]
        return strings_from_parts(data, str_lens, typ)
