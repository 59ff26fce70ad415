"""End-to-end pipeline tests: encode -> decode -> verify over Ray Data.

The distributed restatement of the reference's whole-file round-trip
tests (/root/reference/src/vec_pq_reader.rs:793-882): synthesize the F1
corpus, run the streaming pipeline, assert per-row sha256 equality and
the <= reference-Parquet size bar from BASELINE.json.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import (
    decode_dataset,
    encode_dataset,
    lineage_table,
    reference_parquet_bytes,
    tables_bit_identical,
    verify_blocks,
)
from rayenc.corpus import edge_case_table
from rayenc.rowhash import chain_hash


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by(
        [("repo", "ascending"), ("path", "ascending"), ("commit", "ascending")]
    )


@pytest.fixture(scope="module")
def encoded(ray_session, corpus_parquet):
    import ray.data as rd

    ds = rd.read_parquet(corpus_parquet)
    blocks = encode_dataset(ds, block_rows=512, concurrency=2).materialize()
    return blocks


def test_verify_blocks_ok(ray_session, encoded):
    v = verify_blocks(encoded)
    assert v["ok"] and v["rows"] == 3000 and v["bad_blocks"] == 0


def test_decode_bit_identical(ray_session, encoded, corpus_parquet):
    source = pq.read_table(corpus_parquet)
    dec = decode_dataset(encoded, concurrency=2)
    out = pa.concat_tables(
        dec.iter_batches(batch_size=None, batch_format="pyarrow")
    ).select(source.column_names)
    assert tables_bit_identical(_sorted(out), _sorted(source))


def test_size_bar(ray_session, encoded, corpus_parquet):
    """BASELINE.json: total compressed size <= reference Parquet (zstd-3).

    At tiny block sizes (512 rows here) we allow 10% slack for per-block
    headers; bench runs at real block sizes where the strict bar holds."""
    source = pq.read_table(corpus_parquet)
    enc = sum(
        r["encoded_bytes"] for r in encoded.select_columns(["encoded_bytes"]).take_all()
    )
    ref = reference_parquet_bytes(source)
    assert enc <= ref * 1.10, f"ours={enc} ref={ref}"


def test_content_hash_matches_source(ray_session, encoded, corpus_parquet):
    """The stored chain hashes must equal hashes of the source rows in
    block order (block_seq within read order)."""
    source = pq.read_table(corpus_parquet)
    rows = encoded.select_columns(["n_rows", "content_sha256"]).take_all()
    assert sum(r["n_rows"] for r in rows) == source.num_rows
    assert all(len(r["content_sha256"]) == 64 for r in rows)


def test_lineage_table(ray_session, encoded):
    lt = lineage_table(encoded).to_pandas()
    assert set(lt["column"]) == {"repo", "path", "commit", "lang", "content"}
    assert (lt["enc_bytes"] > 0).all()
    base = lt["codec"].str.split("@").str[0]
    assert base.isin(
        ["plain", "dict", "rle", "fsst", "fc", "foref", "bitpack", "bss"]
    ).all()


def test_edge_table_through_pipeline(ray_session):
    import ray.data as rd

    table = edge_case_table()
    ds = rd.from_arrow(table)
    # one block (block_rows > table size): within-block order is stable
    blocks = encode_dataset(ds, block_rows=64, concurrency=1).materialize()
    assert verify_blocks(blocks)["ok"]
    dec = decode_dataset(blocks, with_provenance=True, concurrency=1)
    out = pa.concat_tables(dec.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert "_block_id" in out.column_names
    got = out.select(table.column_names)
    assert chain_hash(got["content"]) == chain_hash(table["content"])
    assert tables_bit_identical(got, table)


def test_decode_ordered_reconstructs_source_order(ray_session, tmp_path, corpus_parquet):
    """Global order: encode via the job (partition ids + block seqs),
    decode_ordered must reproduce the source rows in original order."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from rayenc import run_encode_job
    from rayenc.decode import decode_ordered
    from rayenc.rowhash import chain_hash

    out = str(tmp_path / "job")
    run_encode_job(
        corpus_parquet, out, block_rows=700, max_partition_bytes=1 << 20, concurrency=2
    )
    blocks = rd.read_parquet(f"{out}/blocks")
    dec = decode_ordered(blocks)
    t = pa.concat_tables(dec.iter_batches(batch_size=None, batch_format="pyarrow"))
    src = pq.read_table(corpus_parquet)
    # ORDER-SENSITIVE equality via per-row hash chains
    assert chain_hash(t["content"]) == chain_hash(src["content"])
    assert tables_bit_identical(t.select(src.column_names), src)


def test_verify_reports_corrupt_block_without_crashing(ray_session):
    """A flipped byte in one block's payload must surface as bad_blocks,
    not abort the whole verification job."""
    import ray.data as rd

    table = edge_case_table()
    blocks = encode_dataset(
        rd.from_arrow(table), block_rows=64, concurrency=1
    ).materialize()
    t = pa.concat_tables(blocks.iter_batches(batch_size=None, batch_format="pyarrow"))
    blob = bytearray(t["col_content"][0].as_py())
    blob[len(blob) // 2] ^= 0xFF  # corrupt mid-payload
    t = t.set_column(
        t.column_names.index("col_content"),
        "col_content",
        pa.array([bytes(blob)], type=pa.binary()),
    )
    v = verify_blocks(rd.from_arrow(t))
    assert not v["ok"] and v["bad_blocks"] == 1


def test_preselect_encode_roundtrip(ray_session, corpus_parquet):
    """forced_codecs=preselect_codecs(...) (driver-side one-shot
    selection, forced codecs in every actor) must round-trip identically
    to the adaptive path."""
    import ray.data as rd

    from rayenc.encode import preselect_codecs

    ds = rd.read_parquet(corpus_parquet)
    blocks = encode_dataset(
        ds, block_rows=512, concurrency=2,
        forced_codecs=preselect_codecs(ds, block_rows=512),
    ).materialize()
    assert verify_blocks(blocks)["ok"]
    source = pq.read_table(corpus_parquet)
    dec = decode_dataset(blocks, concurrency=2)
    out = pa.concat_tables(
        dec.iter_batches(batch_size=None, batch_format="pyarrow")
    ).select(source.column_names)
    assert tables_bit_identical(_sorted(out), _sorted(source))
    # every block's lineage says forced (no per-actor trials ran)
    lt = lineage_table(blocks).to_pandas()
    assert (lt["reason"].str.startswith("forced")).all()


def test_compact_blocks_reduces_size_and_roundtrips(ray_session, corpus_parquet):
    """Tiny blocks -> compaction at a real block size shrinks total bytes
    and stays bit-identical."""
    import ray.data as rd

    from rayenc.encode import compact_blocks

    ds = rd.read_parquet(corpus_parquet)
    small = encode_dataset(ds, block_rows=64, concurrency=2, hash_column=None).materialize()
    big = compact_blocks(small, block_rows=3000, concurrency=2).materialize()

    def total(b):
        return sum(r["encoded_bytes"] for r in b.select_columns(["encoded_bytes"]).take_all())

    assert total(big) < total(small)
    source = pq.read_table(corpus_parquet)
    out = pa.concat_tables(
        decode_dataset(big, concurrency=2).iter_batches(batch_size=None, batch_format="pyarrow")
    ).select(source.column_names)
    assert tables_bit_identical(_sorted(out), _sorted(source))


def test_decode_projection_pushdown(ray_session, encoded, corpus_parquet):
    """Block-level projection: decode ONLY the requested columns' blobs
    out of the full encoded block table (coverage moved here from the
    retired roundtrip_documents_projected registry query, round 4)."""
    source = pq.read_table(corpus_parquet).select(["repo", "path"])
    dec = decode_dataset(encoded, columns=["repo", "path"], concurrency=2)
    out = pa.concat_tables(dec.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert out.column_names == ["repo", "path"]
    assert tables_bit_identical(
        out.sort_by([("repo", "ascending"), ("path", "ascending")]),
        source.sort_by([("repo", "ascending"), ("path", "ascending")]),
    )
