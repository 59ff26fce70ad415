"""Mergeable sketches: HyperLogLog distinct-count over a Dataset.

The reference has no approximate operators (SURVEY.md §2.4); at 100 TB
an exact count_distinct is an all-to-all shuffle, while a sketch is one
small partial per batch merged associatively (the guide's
emit-a-sketch-per-batch pattern) through `dispatch.fold`, so the
driver merges at most FOLD_FAN_IN of them. Exposed as standalone ops:
HLL distinct counts, Misra-Gries heavy hitters and KLL quantiles.

Standard HLL: b-bit bucket index + rank of leading zeros in the rest,
numpy-vectorized per batch; partial registers merge by elementwise max.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

import ray.data

from ..dispatch import fold, spare_cpus
from .hashing import hash_array_64


def _hash64(values: pa.Array | pa.ChunkedArray | list) -> np.ndarray:
    """Vectorized uint64 per value (stages.hashing xxhash kernel — the
    round-1 per-value blake2b Python loop was the HLL hot spot)."""
    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(values)
    return hash_array_64(values, seed=7)


def hll_partial(values: pa.Array | list, b: int = 12) -> np.ndarray:
    """Registers (2^b uint8) for one batch of values."""
    m = 1 << b
    regs = np.zeros(m, dtype=np.uint8)
    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(values)
    vals = values.drop_null()
    if len(vals) == 0:
        return regs
    h = _hash64(vals)
    idx = (h >> np.uint64(64 - b)).astype(np.int64)
    rest = h << np.uint64(b)  # remaining bits, MSB-aligned
    # rank = leading zeros in `rest` + 1 (capped). Exact byte-LUT scan:
    # 8 whole-array passes over the little-endian byte view instead of
    # the previous per-bit loop's 64-b (~52) passes; rest's low b bits
    # are zero by construction, so the cap only fires for rest == 0.
    bytes8 = rest.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    lz = np.full(len(h), 64 - b, dtype=np.uint8)  # rest==0 -> cap
    found = np.zeros(len(h), dtype=bool)
    for bi in range(7, -1, -1):  # byte 7 holds the MSB (little-endian)
        byte = bytes8[:, bi]
        nz = (byte != 0) & ~found
        if nz.any():
            lz[nz] = (7 - bi) * 8 + (8 - _BIT_LENGTH[byte[nz]])
        found |= byte != 0
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


_BIT_LENGTH = np.array([v.bit_length() for v in range(256)], dtype=np.uint8)


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting small-range correction
    return float(est)


def mg_partial(tokens, counts, k: int) -> dict:
    """Misra-Gries summary of one batch's (token, count) pairs: keep at
    most k counters; evicting decrements every counter by the evicted
    weight (standard MG; undercounts by <= n/k)."""
    if len(tokens) <= k:
        return dict(zip(tokens, (int(c) for c in counts)))
    # keep top-k by count, charge the rest as a uniform decrement floor
    order = sorted(range(len(tokens)), key=lambda i: -counts[i])
    keep = order[:k]
    floor = int(counts[order[k]])
    out = {}
    for i in keep:
        c = int(counts[i]) - floor
        if c > 0:
            out[tokens[i]] = c
    return out


def mg_merge(a: dict, b: dict, k: int) -> dict:
    """Merge two MG summaries (mergeable per Agarwal et al., 'Mergeable
    Summaries', PODS 2012): sum counters, then decrement by the (k+1)-th
    largest and drop non-positives."""
    out = dict(a)
    for t, c in b.items():
        out[t] = out.get(t, 0) + c
    if len(out) <= k:
        return out
    vals = sorted(out.values(), reverse=True)
    floor = vals[k]
    return {t: c - floor for t, c in out.items() if c - floor > 0}


class KllSketch:
    """Mergeable quantile sketch (KLL: Karnin/Lang/Liberty, FOCS 2016):
    level i holds items of weight 2^i; a full level sorts, keeps
    alternate items (offset chosen by a seeded RNG) and promotes the
    survivors one level up. Capacities follow the paper's geometric
    schedule — the TOP level holds k items and each level below decays
    by c=2/3 (floored at 8) — giving the O(k) total-memory bound with
    the error concentrated in the cheap low-weight levels. Merge is
    level-wise concatenation + re-compaction, so per-batch partials
    combine pairwise through `dispatch.fold` like the HLL/Misra-Gries
    sketches above; the merged sketch's RNG seed is drawn from the left
    operand's."""

    _C = 2.0 / 3.0  # per-level capacity decay (KLL paper's constant)
    _MIN_CAP = 8

    def __init__(self, k: int = 512, seed: int = 42):
        self.k = k
        self.seed = int(seed)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.rng = np.random.default_rng(seed)
        self.n = 0

    def _cap(self, lvl: int, depth: int) -> int:
        return max(self._MIN_CAP, int(np.ceil(self.k * self._C ** (depth - 1 - lvl))))

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        self.n += len(values)
        self.levels[0] = np.concatenate([self.levels[0], values])
        self._compact()

    def _compact(self) -> None:
        lvl = 0
        while lvl < len(self.levels):
            buf = self.levels[lvl]
            if len(buf) <= self._cap(lvl, len(self.levels)):
                lvl += 1
                continue
            buf = np.sort(buf)
            off = int(self.rng.integers(0, 2))
            promoted = buf[off::2]
            self.levels[lvl] = np.empty(0, dtype=np.float64)
            if lvl + 1 == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[lvl + 1] = np.concatenate(
                [self.levels[lvl + 1], promoted]
            )
            lvl += 1

    def merge(self, other: "KllSketch") -> "KllSketch":
        out = KllSketch(self.k, seed=int(self.rng.integers(0, 2**31)))
        out.n = self.n + other.n
        depth = max(len(self.levels), len(other.levels))
        out.levels = []
        for i in range(depth):
            a = self.levels[i] if i < len(self.levels) else np.empty(0, np.float64)
            b = other.levels[i] if i < len(other.levels) else np.empty(0, np.float64)
            out.levels.append(np.concatenate([a, b]))
        out._compact()
        return out

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals, weights = [], []
        for i, buf in enumerate(self.levels):
            if len(buf):
                vals.append(buf)
                weights.append(np.full(len(buf), 1 << i, dtype=np.int64))
        if not vals:
            return np.empty(0, np.float64), np.empty(0, np.int64)
        v = np.concatenate(vals)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantiles(self, qs: list[float]) -> list[float]:
        v, w = self._weighted()
        if len(v) == 0:
            return [float("nan")] * len(qs)
        cw = np.cumsum(w)
        total = cw[-1]
        out = []
        for q in qs:
            target = min(max(q, 0.0), 1.0) * total
            idx = int(np.searchsorted(cw, target, side="left"))
            out.append(float(v[min(idx, len(v) - 1)]))
        return out

    def to_json(self) -> str:
        import json as _json

        return _json.dumps(
            {
                "k": self.k,
                "n": self.n,
                "seed": self.seed,
                "levels": [b.tolist() for b in self.levels],
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "KllSketch":
        import json as _json

        d = _json.loads(s)
        sk = cls(d["k"], seed=d.get("seed", 42))
        sk.n = d["n"]
        sk.levels = [np.asarray(b, dtype=np.float64) for b in d["levels"]]
        return sk

    def __reduce__(self):
        # a pickled sketch travels as its JSON form, so one that crosses
        # a process boundary restarts its compaction RNG from its seed,
        # exactly like one read back from a zonemap or a partial column
        return (KllSketch.from_json, (self.to_json(),))


def approx_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: list[float],
    k: int = 512,
) -> list[float]:
    """Distributed approximate quantiles: one KLL partial per batch
    (seeded by a CRC of the batch head so equal-sized batches get
    independent compaction coins; seeds persist through serialization),
    merged pairwise by `KllSketch.merge` through `dispatch.fold`. Rank
    error ~ O(log(n/k)/k) — k=512 gives well under 1% at millions of
    rows."""
    import zlib

    def part(batch: pa.Table) -> KllSketch:
        vals = batch[col].drop_null().to_numpy(zero_copy_only=False)
        # seed from the batch CONTENT so equal-sized batches decorrelate
        # (persisted in the serialized sketch so merges stay decorrelated)
        seed = zlib.crc32(np.asarray(vals[:64], dtype=np.float64).tobytes()) or 1
        sk = KllSketch(k, seed=seed)
        sk.update(np.asarray(vals, dtype=np.float64))
        return sk

    merged = fold(ds, part, KllSketch.merge)
    if merged is None:
        return [float("nan")] * len(qs)
    return merged.quantiles(qs)


def approx_quantiles_by(
    ds: "ray.data.Dataset",
    key_col: str,
    col: str,
    qs: list[float],
    k: int = 256,
) -> pa.Table:
    """PER-KEY approximate quantiles (the telemetry staple: p50/p95/p99
    latency per endpoint, price percentiles per category): one KLL
    partial per (batch, key) built inside ``map_batches``, then ONE
    ``groupby(key)`` merge — the shuffle ships only k-bounded sketch
    JSON, never the value column, and a hot key costs its merge task
    n_batches sketches, not n_rows values. Null keys form their own
    group (SQL GROUP BY semantics); null/NaN values are ignored.

    Returns an Arrow table: ``key_col``, ``n`` (exact per-key count of
    non-null values), and one float64 column per requested quantile
    (``p50`` for 0.5, ``p99`` for 0.99, ``p99_9`` for 0.999).

    The merge groupby runs on a derived ``hash(key) % N`` int32 bucket
    (the repo's one bucketing, ``hashing.key_buckets``) rather than the
    raw key: Ray's sort shuffle cannot order null string keys, and the
    bucket keeps the shuffle's key space bounded regardless of key
    cardinality; real keys are sub-grouped inside the merge task."""
    import zlib

    q_names = [
        ("p%g" % (q * 100)).replace(".", "_") for q in qs
    ]
    bucket_col = "__qb_b"
    n_buckets = spare_cpus(32)
    from .hashing import key_buckets

    def partials(batch: pa.Table) -> pa.Table:
        key_type = batch[key_col].type
        df = pa.table({"k": batch[key_col], "v": batch[col]}).to_pandas()
        keys, sketches, counts = [], [], []
        for key, grp in df.groupby("k", sort=False, dropna=False):
            vals = np.asarray(grp["v"].to_numpy(), dtype=np.float64)
            vals = vals[~np.isnan(vals)]
            seed = zlib.crc32(vals[:64].tobytes()) or 1
            sk = KllSketch(k, seed=seed)
            sk.update(vals)
            keys.append(None if (key is None or key != key) else key)
            sketches.append(sk.to_json())
            counts.append(len(vals))
        # pin the key type: a batch whose null-key group becomes NaN must
        # not widen int keys to float (schema drift across partials)
        key_arr = pa.array(keys, type=key_type)
        return pa.table(
            {
                key_col: key_arr,
                "kll": pa.array(sketches, type=pa.string()),
                "n": pa.array(counts, type=pa.int64()),
                bucket_col: key_buckets(key_arr, n_buckets),
            }
        )

    def merge_bucket(g: pa.Table) -> pa.Table:
        if g.num_columns == 0:  # empty partition: map_groups skips the UDF upstream
            return g
        key_type = g[key_col].type
        df = g.to_pandas()
        out = {key_col: [], "n": []}
        for name in q_names:
            out[name] = []
        for key, grp in df.groupby(key_col, sort=False, dropna=False):
            merged = functools.reduce(KllSketch.merge, map(KllSketch.from_json, grp["kll"]))
            vals = merged.quantiles(qs)
            if key is None or key != key:
                key = None
            elif pa.types.is_integer(key_type):
                key = int(key)  # pandas floated a nullable int key
            out[key_col].append(key)
            out["n"].append(int(grp["n"].sum()))
            for name, v in zip(q_names, vals):
                out[name].append(float(v))
        cols = {key_col: pa.array(out[key_col], type=key_type),
                "n": pa.array(out["n"], type=pa.int64())}
        for name in q_names:
            cols[name] = pa.array(out[name], type=pa.float64())
        return pa.table(cols)

    parts = ds.map_batches(partials, batch_format="pyarrow")
    merged = parts.groupby(bucket_col).map_groups(merge_bucket, batch_format="pyarrow")
    # final surface is tiny (one row per key); collect as ARROW refs — a
    # to_pandas here would re-widen nullable int keys to float64 — and
    # drop the schemaless empty blocks map_groups emits for empty buckets
    blocks = [b for b in ray.get(merged.to_arrow_refs()) if b.num_rows]
    tbl = pa.concat_tables(blocks)
    return tbl.sort_by(key_col)


def approx_top_tokens(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    k: int = 8192,
    topn: int = 20,
) -> tuple:
    """Heavy hitters over whitespace tokens with BOUNDED memory
    everywhere: one <=k-entry Misra-Gries summary per batch (vectorized
    value_counts), merged associatively through `dispatch.fold`
    (mergeable per Agarwal et al., PODS 2012). Returns (table, exact)
    where exact is True iff no eviction happened anywhere — then counts
    equal the true counts and the result is oracle-comparable; at
    web-scale vocabularies it degrades gracefully to guaranteed-error
    estimates."""

    # a partial is (summary, evicted)
    def part(batch: pa.Table) -> tuple:
        vc = batch[text_col].to_pandas().dropna().str.findall(r"\S+").explode().value_counts()
        return mg_partial(vc.index.to_list(), vc.to_numpy(), k), len(vc) > k

    def merge(a: tuple, b: tuple) -> tuple:
        return (mg_merge(a[0], b[0], k),
                a[1] or b[1] or len(a[0].keys() | b[0].keys()) > k)

    merged, evicted = fold(ds, part, merge) or ({}, False)
    top = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:topn]
    t = pa.table(
        {
            "token": pa.array([t for t, _ in top], type=pa.string()),
            "n_occurrences": pa.array([c for _, c in top], type=pa.int64()),
        }
    )
    return t, not evicted


def approx_distinct(ds: "ray.data.Dataset", col: str, b: int = 12) -> float:
    """Distributed distinct estimate: one 4 KiB register set per batch,
    merged by elementwise max through `dispatch.fold` — no shuffle, and
    the driver merges at most FOLD_FAN_IN register sets."""
    regs = fold(ds, lambda batch: hll_partial(batch[col], b), np.maximum)
    return hll_estimate(np.zeros(1 << b, dtype=np.uint8) if regs is None else regs)
