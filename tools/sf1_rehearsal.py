"""sf1 scale rehearsal (VERDICT r4 #6): 10x the bench corpus.

Two claims from rounds 3-4 have never been shown above bench scale:
(a) nothing driver-side grows with corpus size on the flagship
    encode->decode->verify path, and
(b) the dedup family's 2-4 s bucketed-shuffle floor at sf0.1 is a fixed
    cost that AMORTIZES — walls should grow far slower than data until
    real work dominates, then ~linearly.

This script produces the evidence:

Part A — flagship at sf1: the deterministic bench corpus at 12M rows
(~28 GB content; 10x BENCH's 1.2M), one untimed page-cache pass, then
ONE timed encode (driver-preselected codecs, the steady-state shape),
a streaming decode, and the sha256-chain verify. Any O(corpus) driver
state would OOM or stall here.

Part B — the dedup family at 1x / 10x / 100x documents scale (5k /
50k / 500k docs, 2k / 20k / 200k embeddings): a deterministic
generator mirrors the sf0.1 documents shape (small vocab, 8-100-word
texts, ~1% planted exact dups + ~2% one-word-edit near dups, so the
duplicate DENSITY — and hence the real pair work — scales linearly).
Each query runs once per scale; the per-scale walls quantify
fixed-cost amortization directly.

Usage:
  python tools/sf1_rehearsal.py                 # both parts
  python tools/sf1_rehearsal.py --skip-flagship # Part B only
  python tools/sf1_rehearsal.py --flagship-rows 2400000  # smaller A

Results land in /tmp/rayenc_sf1/result.json (one JSON line also
printed); the BASELINE.md sf1 section records the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

OUT_ROOT = "/tmp/rayenc_sf1"

VOCAB = np.array(
    [
        "batch", "part", "spark", "line", "column", "order", "small", "sort",
        "fast", "value", "scan", "hash", "slow", "group", "agg", "filter",
        "query", "big", "key", "window", "read", "write", "block", "page",
        "row", "join", "scale", "shard", "merge", "dedup", "token", "index",
        "store", "cache", "plan", "stage", "actor", "object", "node", "task",
    ]
)
LANGS = np.array(["en", "en", "zh", "es", "fr", "de"])  # en-heavy like sf0.1


def gen_docs(n: int, seed: int = 7) -> pa.Table:
    """Deterministic documents table in the sf0.1 shape (doc_id, text,
    lang, source, n_chars) with linearly-scaling planted duplicates."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(8, 100, size=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    words = VOCAB[rng.integers(0, len(VOCAB), size=int(offsets[-1]))]
    # pa.array may return a ChunkedArray above ~2^31 values/bytes;
    # combine_chunks keeps from_arrays happy at every scale
    flat = pa.array(words, type=pa.string())
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    lists = pa.LargeListArray.from_arrays(pa.array(offsets, type=pa.int64()), flat)
    texts = pc.binary_join(lists, " ").to_numpy(zero_copy_only=False)

    # planted duplicates: ~1% exact copies + ~2% one-word edits of an
    # earlier doc — constant DENSITY so pair work scales with the data
    n_exact = n // 100
    n_near = n // 50
    dup_rows = rng.choice(np.arange(n // 10, n), size=n_exact + n_near, replace=False)
    src_rows = rng.integers(0, n // 10, size=n_exact + n_near)
    for i, (d, s) in enumerate(zip(dup_rows, src_rows)):
        if i < n_exact:
            texts[d] = texts[s]
        else:
            toks = texts[s].split(" ")
            toks[int(rng.integers(0, len(toks)))] = str(VOCAB[int(rng.integers(0, len(VOCAB)))])
            texts[d] = " ".join(toks)

    text_arr = pa.array(texts, type=pa.string())
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), type=pa.int64()),
            "text": text_arr,
            "lang": pa.array(LANGS[rng.integers(0, len(LANGS), size=n)], type=pa.string()),
            "source": pa.array(
                ["src%d" % k for k in rng.integers(0, 20, size=n)], type=pa.string()
            ),
            "n_chars": pc.binary_length(text_arr).cast(pa.int64()),
        }
    )


def gen_embeddings(n: int, seed: int = 11, dim: int = 64, n_clusters: int = 10) -> pa.Table:
    """Deterministic embeddings table in the sf0.1 shape (vec_id,
    embedding list<float>, label): unit vectors around cluster centers."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, dim)).astype(np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, n_clusters, size=n).astype(np.int32)
    vecs = centers[labels] + 0.6 * rng.standard_normal((n, dim)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array(list(vecs), type=pa.list_(pa.float32())),
            "label": pa.array(labels, type=pa.int32()),
        }
    )


def ensure_scale_dir(scale: int) -> str:
    d = os.path.join(OUT_ROOT, f"x{scale}")
    marker = os.path.join(d, ".done")
    if os.path.exists(marker):
        return d
    os.makedirs(d, exist_ok=True)
    docs = gen_docs(5000 * scale)
    pq.write_table(docs, os.path.join(d, "documents.parquet"), row_group_size=4000)
    emb = gen_embeddings(2000 * scale)
    pq.write_table(emb, os.path.join(d, "embeddings.parquet"), row_group_size=4000)
    with open(marker, "w") as f:
        f.write("ok")
    return d


DEDUP_QUERIES = [
    "dedup_exact",
    "dedup_minhash_survivors",
    "near_dup_pairs_minhash",
    "simhash_pairs",
    "embedding_near_dup_lsh",
]


def run_dedup_family(scales: list[int]) -> dict:
    from rayenc.pipelines.queries import QUERIES

    # untimed warm-up at the smallest scale: Ray worker-pool spin-up,
    # per-worker imports and native-kernel compiles otherwise land on the
    # first timed query (bench.py's best-of-2 serves the same purpose;
    # one warm pass is cheaper at x100)
    warm_dir = ensure_scale_dir(scales[0])
    for name in DEDUP_QUERIES:
        res = QUERIES[name](warm_dir)
        if hasattr(res, "iter_batches"):
            for _ in res.iter_batches(batch_size=None, batch_format="pyarrow"):
                pass

    out: dict[str, dict] = {}
    for scale in scales:
        d = ensure_scale_dir(scale)
        walls: dict[str, float] = {}
        rows: dict[str, int] = {}
        for name in DEDUP_QUERIES:
            t0 = time.perf_counter()
            res = QUERIES[name](d)
            n_rows = 0
            if hasattr(res, "iter_batches"):
                for b in res.iter_batches(batch_size=None, batch_format="pyarrow"):
                    n_rows += b.num_rows
            else:
                n_rows = res.num_rows
            walls[name] = round(time.perf_counter() - t0, 3)
            rows[name] = n_rows
        out[f"x{scale}"] = {"docs": 5000 * scale, "walls": walls, "result_rows": rows}
        print(json.dumps({f"dedup_x{scale}": out[f"x{scale}"]}), flush=True)
    return out


def run_flagship(rows: int) -> dict:
    import ray.data as rd

    from rayenc import decode_dataset, encode_dataset, verify_blocks
    from rayenc.dispatch import cluster_cpus
    from rayenc.encode import preselect_codecs

    os.environ["RAYENC_BENCH_ROWS"] = str(rows)
    import bench  # reads RAYENC_BENCH_ROWS at import

    corpus_path, meta = bench.ensure_corpus()
    # untimed page-cache pass (the steady-state 100 TB regime reads from
    # remote storage; locally the page cache is the stand-in)
    for f in sorted(os.listdir(corpus_path)):
        pq.read_table(os.path.join(corpus_path, f))

    pool = cluster_cpus()
    DW, EC = 0.1, 10.0
    forced = preselect_codecs(
        rd.read_parquet(corpus_path), block_rows=8000, decode_weight=DW, enc_cap=EC
    )

    t0 = time.perf_counter()
    blocks = encode_dataset(
        rd.read_parquet(corpus_path), block_rows=8000, hash_column="content",
        concurrency=pool, decode_weight=DW, enc_cap=EC, forced_codecs=forced,
    ).materialize()
    encode_s = time.perf_counter() - t0

    enc_rows = blocks.select_columns(["encoded_bytes", "source_bytes"]).take_all()
    ours = sum(r["encoded_bytes"] for r in enc_rows)
    src = sum(r["source_bytes"] for r in enc_rows)

    t0 = time.perf_counter()
    for _ in decode_dataset(blocks, concurrency=pool).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        pass
    decode_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    v = verify_blocks(blocks)
    verify_s = time.perf_counter() - t0
    assert v["ok"], v

    return {
        "corpus_rows": meta["rows"],
        "content_gb": round(meta["content_bytes"] / 1e9, 3),
        "encode_sec": round(encode_s, 3),
        "encode_gbps": round(meta["content_bytes"] / encode_s / 1e9, 4),
        "decode_sec": round(decode_s, 3),
        "verify_sec": round(verify_s, 3),
        "verify_ok": v["ok"],
        "encoded_bytes": ours,
        "source_bytes": src,
        "codecs": forced,
    }


def main() -> None:
    from rayenc.dispatch import local_ray_cpus

    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-flagship", action="store_true")
    ap.add_argument("--flagship-rows", type=int, default=12_000_000)
    ap.add_argument("--scales", default="1,10,100")
    ap.add_argument("--num-cpus", type=int, default=local_ray_cpus())
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus,
            include_dashboard=False, logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    os.makedirs(OUT_ROOT, exist_ok=True)
    result: dict = {"num_cpus": args.num_cpus}
    result["dedup_family"] = run_dedup_family(
        [int(s) for s in args.scales.split(",") if s]
    )
    if not args.skip_flagship:
        result["flagship_sf1"] = run_flagship(args.flagship_rows)
    with open(os.path.join(OUT_ROOT, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
