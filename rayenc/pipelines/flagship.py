"""Flagship pipeline: encode -> verify -> decode over a documents table.

The engine's native input is the (repo, path, commit, lang, content)
corpus; the driver's testdata ships ``documents(doc_id, text, lang,
source, n_chars)`` — same shape (id + text payload + low-cardinality
tags), so the flagship runs directly on it with hash_column="text"
(FIXTURES.md F4). Demonstrates the whole lifecycle of SURVEY.md §3.4 in
streaming form.
"""

from __future__ import annotations

import ray.data as rd

from ..decode import decode_dataset
from ..encode import encode_dataset
from ..verify import verify_blocks


def flagship(
    sf_dir: str,
    block_rows: int = 2000,
    concurrency=4,
) -> "rd.Dataset":
    """encode documents -> verify sha256 chains -> decode; returns the
    decoded Dataset (bit-identical to the source rows)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    blocks = encode_dataset(
        ds, block_rows=block_rows, hash_column="text", concurrency=concurrency
    ).materialize()  # blocks table is ~1000x smaller than source; safe to pin
    v = verify_blocks(blocks, hash_column="text")
    if not v["ok"]:
        raise RuntimeError(f"verification failed: {v}")
    return decode_dataset(blocks, concurrency=concurrency)


def roundtrip_table(
    sf_dir: str,
    table: str,
    columns: list[str] | None = None,
    hash_column: str | None = None,
    block_rows: int = 2000,
) -> "rd.Dataset":
    """Generic encode->decode round-trip over any testdata table; the
    identity projection whose DuckDB oracle is SELECT <columns>."""
    ds = rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)
    blocks = encode_dataset(
        ds, columns=columns, block_rows=block_rows, hash_column=hash_column
    )
    return decode_dataset(blocks)
