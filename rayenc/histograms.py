"""Histogram-JSON ingestion: the reference's native js2pq pipeline,
re-expressed Ray-Data-first.

The reference reads one (optionally gzipped) JSON "Metric" file — series
rows with parallel tag arrays and nested numeric vectors
(/root/reference/src/model.rs:1-18) — infers a wide tag schema (union of
tag keys, sorted, optional hexify, /root/reference/src/bin/js2pq/main.rs:54-68),
pivots row->columnar (/root/reference/src/columns_builder.rs:63-107) and
writes Parquet with a hard-coded per-column policy (:85-118). Here:

- parsing + pivot are a ``map_batches`` stage over
  ``read_binary_files`` (one file = one Metric, gzip sniffed by suffix
  like the reference, /root/reference/src/bin/js2pq/main.rs:146-152);
- schema inference is a two-pass variant: a cheap distributed tag-key
  union pass, then the pivot pass (the reference is single-file so does
  both in memory; multi-file inputs need the union to be global);
- the shredded (columnar) layout is the only one implemented — the
  reference's FlatBuffers blob layout silently DROPS null elements
  (/root/reference/src/flatbuffers.rs:14-30); ours must be lossless, and
  our own block container (rayenc.blocks) already serves as the opaque
  layout without the lossiness;
- the per-column writer policy (dict on tags, BYTE_STREAM_SPLIT on
  sums_double, stats off on vectors) maps to pyarrow writer args in
  ``write_policy_parquet`` — and, beyond parity, the pivoted table can
  flow straight into rayenc.encode.encode_dataset (list columns are
  first-class blocks).
"""

from __future__ import annotations

import gzip
import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from .dispatch import map_stage

LIST_COLS = ("ts", "sums_double", "sums_long", "count")


def as_hex(s: str) -> str:
    """Column-name hexify (2 hex chars per byte),
    /root/reference/src/columns_builder.rs:164-171."""
    return s.encode().hex()


def parse_metric(data: bytes, path: str = "") -> dict:
    """bytes -> Metric dict. Gzip is sniffed by MAGIC BYTES, not suffix
    (the reference sniffs the .gz extension,
    /root/reference/src/bin/js2pq/main.rs:146-152 — but Ray's
    read_binary_files already auto-decompresses by extension, so content
    sniffing handles both raw and pre-decompressed inputs)."""
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return json.loads(data)


def metric_tag_keys(metric: dict) -> set[str]:
    keys: set[str] = set()
    for s in metric["series"]:
        keys.update(s["tags"])
    return keys


def infer_tag_schema(
    ds: "ray.data.Dataset", hexify: bool = False
) -> list[str]:
    """Global tag-key union across all metric files: per-batch partial
    unions (one small set per batch) -> driver union -> sorted. The
    distributed generalization of the reference's single-file scan
    (/root/reference/src/bin/js2pq/main.rs:54-68)."""

    def partial(batch: pa.Table) -> pa.Table:
        keys: set[str] = set()
        for data, path in zip(
            batch["bytes"].to_pylist(), batch["path"].to_pylist()
        ):
            keys.update(metric_tag_keys(parse_metric(data, path)))
        return pa.table({"tag": pa.array(sorted(keys), type=pa.string())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    keys = set(parts.unique("tag"))
    out = sorted(keys)
    if hexify:
        out = [as_hex(k) for k in out]
    return out


def pivot_metric(metric: dict, tag_keys: list[str], hexify: bool = False) -> pa.Table:
    """Row->columnar pivot with null-fill for absent tags — the vector
    analog of Builders::append (/root/reference/src/columns_builder.rs:63-107).
    Null ELEMENTS in sums_double/sums_long are preserved (the fidelity the
    reference's FlatBuffers path loses)."""
    series = metric["series"]
    n = len(series)
    reserved = {"metric", "ts", "sums_double", "sums_long", "count"}
    clash = reserved & set(tag_keys)
    if clash:
        # a tag key named like a value column would be silently
        # overwritten by the list column below — refuse loudly (the
        # hexify=True path cannot collide: hex names differ)
        raise ValueError(
            f"tag key(s) {sorted(clash)} collide with reserved metric "
            "columns; ingest with hexify=True or rename the tags"
        )
    cols: dict[str, pa.Array] = {
        "metric": pa.array([metric["metric"]] * n, type=pa.string())
    }
    per_tag: dict[str, list] = {k: [None] * n for k in tag_keys}
    for i, s in enumerate(series):
        for k, v in zip(s["tags"], s["tagValues"]):
            kk = as_hex(k) if hexify else k
            if kk in per_tag:
                per_tag[kk][i] = v
    for k in tag_keys:
        cols[k] = pa.array(per_tag[k], type=pa.string())
    cols["ts"] = pa.array([s["ts"] for s in series], type=pa.list_(pa.int64()))
    cols["sums_double"] = pa.array(
        [s["sumsDouble"] for s in series], type=pa.list_(pa.float64())
    )
    cols["sums_long"] = pa.array(
        [s["sumsLong"] for s in series], type=pa.list_(pa.int64())
    )
    cols["count"] = pa.array([s["count"] for s in series], type=pa.list_(pa.int64()))
    return pa.table(cols)


class _Pivot:
    """Stage: a batch of (bytes, path) metric files -> their pivoted rows
    under the global tag schema."""

    def __init__(self, tag_keys: list[str], hexify: bool):
        self.tag_keys = tag_keys
        self.hexify = hexify

    def __call__(self, batch: pa.Table) -> pa.Table:
        tables = [
            pivot_metric(parse_metric(d, p), self.tag_keys, self.hexify)
            for d, p in zip(batch["bytes"].to_pylist(), batch["path"].to_pylist())
        ]
        return pa.concat_tables(tables)


def read_histograms(
    paths: list[str] | str, hexify: bool = False, concurrency=4
) -> "ray.data.Dataset":
    """Full js2pq ingestion pipeline: binary files -> Metric parse ->
    global tag schema -> pivoted Dataset (one row per series)."""
    files = ray.data.read_binary_files(paths, include_paths=True)
    tag_keys = infer_tag_schema(files, hexify=hexify)
    return map_stage(files, _Pivot, {"tag_keys": tag_keys, "hexify": hexify},
                     concurrency=concurrency, batch_size=1)


def write_policy_parquet(table: pa.Table, path: str) -> None:
    """The reference's per-column writer policy in pyarrow terms
    (/root/reference/src/bin/js2pq/main.rs:85-118): ZSTD(3), v2 data
    pages, dictionary ON for tag/metric columns only, BYTE_STREAM_SPLIT
    on sums_double, statistics OFF for the vector columns."""
    tag_cols = [
        c for c in table.column_names if c not in LIST_COLS and c != "metric"
    ]
    kwargs: dict = dict(
        compression="zstd",
        compression_level=3,
        version="2.6",
        use_dictionary=["metric", *tag_cols],
        write_statistics=["metric", *tag_cols],
    )
    try:
        # the policy targets the parquet LEAF, whose path for a list
        # column is '<name>.list.element' — the bare column name is
        # silently ignored (round-4 self-review, verified on pyarrow 16)
        pq.write_table(
            table,
            path,
            use_byte_stream_split=["sums_double.list.element"],
            **kwargs,
        )
    except (TypeError, ValueError):
        # older pyarrow rejecting list-valued use_byte_stream_split — the
        # only failure this fallback is for; I/O or data errors propagate
        # (a bare except here silently dropped the policy on ANY error)
        pq.write_table(table, path, **kwargs)


def write_opaque_parquet(table: pa.Table, path: str) -> str:
    """The reference's `--use-flatbuffers` layout as a first-class
    option (/root/reference/src/bin/js2pq/main.rs:101-118,
    src/schema.rs:36-38): metric name + ONE opaque binary column holding
    the whole serialized record — but lossless (rayenc.opaque msgpack;
    the reference's FlatBuffers path drops nulls). Returns the path."""
    from .opaque import pack_opaque

    record_cols = [c for c in table.column_names if c != "metric"]
    packed = pack_opaque(table, columns=record_cols, keep=["metric"])
    pq.write_table(
        packed,
        path,
        compression="zstd",
        compression_level=3,
        version="2.6",
        use_dictionary=["metric"],
        write_statistics=["metric"],  # stats off for the blob, like the ref
    )
    return path


def read_opaque_parquet(path: str, schema: pa.Schema) -> pa.Table:
    """Inverse of write_opaque_parquet: unpack the record column back to
    typed columns per `schema` (metric passes through)."""
    from .opaque import unpack_opaque

    return unpack_opaque(pq.read_table(path), schema, keep=["metric"])


def write_flatbuffers_parquet(table: pa.Table, path: str) -> str:
    """The reference's ACTUAL `--use-flatbuffers` wire layout
    (/root/reference/src/schema.rs:36-38, src/flatbuffers.rs:10-41):
    tag columns + one `binary_data` column of FlatBuffers Histogram
    buffers. Faithfully LOSSY like the reference — null elements of
    sums_double/sums_long are dropped (:14-30); use write_opaque_parquet
    (msgpack) when fidelity matters. Exists so reference-written files
    and ours are mutually readable (rayenc.fbs round-trips them)."""
    from .fbs import histogram_to_flatbuffers

    keep = [c for c in table.column_names if c not in LIST_COLS]
    blobs = []
    for i in range(table.num_rows):
        ts = table["ts"][i].as_py() or []
        count = table["count"][i].as_py() or []
        if None in ts or None in count:
            # ts/count are int64 wire vectors with no null slot in the
            # layout; a silent np.asarray failure deep in fbs would kill
            # the whole write with an opaque TypeError — refuse per-row
            raise ValueError(
                f"write_flatbuffers_parquet: row {i} has null element(s) "
                "in ts/count; the FlatBuffers layout cannot represent "
                "them — clean the series or use write_opaque_parquet"
            )
        blobs.append(
            histogram_to_flatbuffers(
                ts,
                count,
                [d for d in (table["sums_double"][i].as_py() or []) if d is not None],
                [d for d in (table["sums_long"][i].as_py() or []) if d is not None],
            )
        )
    out = table.select(keep).append_column(
        "binary_data", pa.array(blobs, type=pa.binary())
    )
    pq.write_table(
        out,
        path,
        compression="zstd",
        compression_level=3,
        version="2.6",
        use_dictionary=keep,
        write_statistics=keep,  # stats off for binary_data, like the ref
    )
    return path


def read_flatbuffers_parquet(path: str) -> pa.Table:
    """Read a reference-layout opaque parquet (binary_data FlatBuffers
    column) back to the shredded table — the interop path a user
    migrating reference-written files hits first."""
    from .fbs import decode_flatbuffers_column

    return decode_flatbuffers_column(pq.read_table(path))


def touch_metric_table(table: pa.Table) -> int:
    """The parqbench anti-DCE fold over a pivoted histogram table
    (/root/reference/src/bin/parqbench/main.rs:58-169)."""
    from .touch import _touch_column

    return sum(_touch_column(table[c]) for c in table.column_names)


# ---------------------------------------------------------------------------
# deterministic synthetic histograms (from-scratch analog of
# scripts/gen_synthetic_data.py — same shape, our own construction)
# ---------------------------------------------------------------------------

_TAG_KEYS = [
    "cloud.region",
    "k8s.pod.name",
    "service.name",
    "env",
    "host.name",
    "team.name",
    "build.number",
]


def gen_histograms(
    n_series: int = 50,
    n_tags: int = 5,
    n_points: int = 60,
    seed: int = 42,
    metric: str = "request_latency",
) -> dict:
    """One deterministic Metric dict (JSON-serializable)."""
    rng = np.random.default_rng(seed)
    series = []
    t0 = 1_700_000_000_000
    for i in range(n_series):
        keys = list(rng.choice(_TAG_KEYS, size=min(n_tags, len(_TAG_KEYS)), replace=False))
        values = [f"v{rng.integers(0, 20)}" for _ in keys]
        ts = (t0 + np.arange(n_points) * 60_000 + int(rng.integers(0, 1000))).tolist()
        sums_double = [
            None if rng.random() < 0.1 else float(np.round(rng.random() * 100, 3))
            for _ in range(n_points)
        ]
        sums_long = [
            None if rng.random() < 0.1 else int(rng.integers(0, 10_000))
            for _ in range(n_points)
        ]
        count = rng.integers(1, 100, size=n_points).tolist()
        series.append(
            {
                "tags": [str(k) for k in keys],
                "tagValues": values,
                "ts": ts,
                "sumsDouble": sums_double,
                "sumsLong": sums_long,
                "count": [int(c) for c in count],
            }
        )
    return {"metric": metric, "series": series}


def write_histogram_json(path: str, metric: dict) -> str:
    """Atomic write (tmp + rename): callers gate fixture regeneration on
    os.path.exists, so a crash mid-write must not pin a truncated file
    at the final path forever."""
    import os

    payload = json.dumps(metric).encode()
    tmp = f"{path}.tmp.{os.getpid()}"
    if path.endswith(".gz"):
        with gzip.open(tmp, "wb") as f:
            f.write(payload)
    else:
        with open(tmp, "wb") as f:
            f.write(payload)
    os.replace(tmp, path)
    return path
