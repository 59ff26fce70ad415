"""Streaming-path total order (round-1 missing #4 / ROADMAP 4)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq


def test_ordered_stream_reconstructs_source_order(ray_session, corpus_parquet):
    import ray.data  # noqa: F401

    from rayenc.decode import attach_global_row_numbers, decode_ordered
    from rayenc.jobs import encode_dataset_ordered

    src = pq.read_table(corpus_parquet, columns=["repo", "path", "commit"])
    blocks = encode_dataset_ordered(
        corpus_parquet,
        columns=["repo", "path", "commit"],
        block_rows=700,  # not aligned to the 500-row row-groups
        hash_column=None,
        concurrency=(1, 2),
    ).materialize()

    # decode_ordered: rows come back in exact source order
    dec = pa.concat_tables(
        decode_ordered(blocks, concurrency=(1, 2)).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    assert dec.select(src.column_names).equals(src)

    # attach_global_row_numbers: rn matches the source position, no sort
    rn_ds = attach_global_row_numbers(blocks, concurrency=(1, 2), base=0)
    t = pa.concat_tables(
        rn_ds.iter_batches(batch_size=None, batch_format="pyarrow")
    ).sort_by("rn")
    assert t["rn"].to_pylist() == list(range(src.num_rows))
    assert t.select(src.column_names).equals(src)


def test_take_rows_random_access(ray_session, corpus_parquet):
    import numpy as np
    import ray.data  # noqa: F401

    from rayenc.decode import take_rows
    from rayenc.jobs import encode_dataset_ordered

    src = pq.read_table(corpus_parquet, columns=["repo", "path", "content"])
    blocks = encode_dataset_ordered(
        corpus_parquet,
        columns=["repo", "path", "content"],
        block_rows=700,
        hash_column=None,
        concurrency=(1, 2),
    ).materialize()
    idx = np.array([2999, 0, 1500, 1500, 777])
    got = take_rows(blocks, idx)
    want = src.take(pa.array(idx))
    assert got.select(src.column_names).equals(want)

    got2 = take_rows(blocks, [42], columns=["path"])
    assert got2.column_names == ["path"]
    assert got2["path"][0].as_py() == src["path"][42].as_py()

    import pytest as _pytest

    with _pytest.raises(IndexError):
        take_rows(blocks, [3000])


def test_take_rows_and_row_numbers_require_row_start(ray_session, corpus_parquet):
    """Blocks WITHOUT row_start raise the named RowStartRequired error
    (the O(n_blocks) driver offset map is retired, VERDICT r4 #7),
    naming the one remedy: re-encode with an ordered path."""
    import numpy as np
    import pytest
    import ray.data  # noqa: F401

    from rayenc.decode import RowStartRequired, attach_global_row_numbers, take_rows
    from rayenc.jobs import encode_dataset_ordered

    src = pq.read_table(corpus_parquet, columns=["repo", "path"])
    blocks = encode_dataset_ordered(
        corpus_parquet,
        columns=["repo", "path"],
        block_rows=700,
        hash_column=None,
        concurrency=(1, 2),
    ).materialize()
    # ordered encodes record the within-partition offset at encode time
    assert "row_start" in blocks.schema().names

    idx = np.array([5, 2999, 1400, 5])
    fast = take_rows(blocks, idx)
    assert fast.select(src.column_names).equals(src.take(pa.array(idx)))

    legacy = blocks.drop_columns(["row_start"]).materialize()
    with pytest.raises(RowStartRequired, match="re-encode with an ordered path"):
        take_rows(legacy, idx)
    with pytest.raises(RowStartRequired, match="re-encode with an ordered path"):
        attach_global_row_numbers(legacy, concurrency=(1, 2), base=0)


def test_partition_bases_catch_compensating_corruption(ray_session, corpus_parquet):
    """sum(n_rows) == max(row_start + n_rows) alone misses a missing
    prefix block compensated by a duplicated later block of equal size;
    the telescoping end^2 - start^2 sum (and min(row_start) == 0) must
    catch it instead of silently mis-addressing rows."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from rayenc.decode import take_rows
    from rayenc.jobs import encode_dataset_ordered

    blocks = encode_dataset_ordered(
        corpus_parquet, block_rows=500, concurrency=2
    ).materialize()
    tbl = pa.concat_tables(
        blocks.iter_batches(batch_size=None, batch_format="pyarrow"),
        promote_options="default",
    )
    tbl = tbl.sort_by([("partition_seq", "ascending"), ("block_seq", "ascending")])
    # drop the first block of partition 0 and duplicate its second block
    # (same n_rows at this block_rows setting): counts and max-end agree
    first_two = tbl.slice(0, 2)
    assert first_two["n_rows"][0].as_py() == first_two["n_rows"][1].as_py()
    corrupt = pa.concat_tables([tbl.slice(1), tbl.slice(1, 1)])
    with _pytest.raises(ValueError, match="total order"):
        take_rows(rd.from_arrow(corrupt), [0])


def test_take_rows_empty_table_and_bad_column(ray_session, corpus_parquet):
    import pytest as _pytest
    import ray.data as rd

    from rayenc.decode import take_rows
    from rayenc.jobs import encode_dataset_ordered

    blocks = encode_dataset_ordered(
        corpus_parquet, block_rows=500, concurrency=2
    ).materialize()
    # empty selection still types the result; unknown columns are named
    empty = take_rows(blocks, [], columns=["path"])
    assert empty.num_rows == 0 and empty.column_names == ["path"]
    with _pytest.raises(ValueError, match="columns not in the block table"):
        take_rows(blocks, [0], columns=["nope"])
    # empty block table: typed-empty result, not IndexError
    none = blocks.filter(lambda r: False).materialize()
    assert take_rows(none, []).num_rows == 0


def test_ordered_and_job_encode_write_the_same_blocks(ray_session, corpus_parquet,
                                                      tmp_path):
    """encode_dataset_ordered and run_encode_job share one read+encode
    core: with the same knobs they write the same blocks per plan
    ordinal. Every column's codec is forced, so no per-worker selector
    state can differ between the two runs."""
    import json

    from rayenc.jobs import encode_dataset_ordered, run_encode_job

    knobs = dict(
        block_rows=700,  # not aligned to the 500-row row-groups
        max_partition_bytes=1 << 20,
        hash_column="content",
        stats="page",
        page_rows=128,
        forced_codecs={"repo": "dict", "path": "fc", "commit": "rle",
                       "lang": "dict", "content": "fsst"},
        concurrency=2,
    )
    ordered = pa.concat_tables(
        encode_dataset_ordered(corpus_parquet, **knobs)
        .materialize()
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    out = tmp_path / "job"
    run_encode_job(corpus_parquet, str(out), **knobs)
    job = pq.read_table(out / "blocks")

    def by_ordinal(t: pa.Table) -> dict:
        cols = ["block_id", "content_sha256", "row_start", "n_rows", "zonemap"]
        cols += [c for c in t.column_names if c.startswith("col_")]
        out = {}
        for r in t.to_pylist():
            lineage = {c: {k: v for k, v in info.items() if k != "ms"}
                       for c, info in json.loads(r["lineage"]).items()}
            out[(r["partition_seq"], r["block_seq"])] = (
                {c: r[c] for c in cols}, lineage)
        return out

    assert sorted(ordered.column_names) == sorted(job.column_names)
    want, got = by_ordinal(job), by_ordinal(ordered)
    assert len({seq for seq, _ in want}) > 1, "fixture should span partitions"
    assert sum(v[0]["n_rows"] for v in want.values()) == 3000
    assert got == want
