"""Zone pruning inside the decode task (rayenc.decode.decode_blocks): a
filtered decode_dataset is one Ray Data execution, and a batch whose
blocks are all pruned yields a zero-row table of the projected schema,
typed from the blob headers."""

from __future__ import annotations

import decimal

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

FILES = 4
FILE_ROWS = 120
LANGS = ["go", "rust", "c", "py", "js"]


@pytest.fixture(scope="module")
def job(ray_session, tmp_path_factory):
    """Four input files, two blocks each; file i holds k in
    [i*1000, i*1000 + FILE_ROWS), so a range filter on k prunes whole
    files' blocks by their zones."""
    from rayenc import run_encode_job

    root = tmp_path_factory.mktemp("prune_in_task")
    tables = []
    for i in range(FILES):
        n = FILE_ROWS
        t = pa.table({
            "k": pa.array(range(i * 1000, i * 1000 + n), type=pa.int64()),
            "lang": pa.array([LANGS[(i + j) % len(LANGS)] for j in range(n)]),
            "path": pa.array([f"dir{i}/f{j % 7}.py" for j in range(n)]),
            "ts": pa.array([1_700_000_000_000 + j for j in range(n)],
                           type=pa.timestamp("ms", tz="UTC")),
        })
        pq.write_table(t, root / f"part-{i}.parquet")
        tables.append(t)
    out = str(root / "job")
    run_encode_job(str(root), out, block_rows=FILE_ROWS // 2,
                   hash_column=None, concurrency=2)
    return out, pa.concat_tables(tables)


def _blocks(out: str):
    import ray.data as rd

    return rd.read_parquet(out + "/blocks")


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _expected(src: pa.Table, filt, columns=None) -> pa.Table:
    from rayenc.decode import filter_table_dnf, normalize_dnf

    got = filter_table_dnf(src, normalize_dnf(filt))
    return got.select(columns) if columns else got


@pytest.mark.parametrize("filt,columns", [
    ([("k", ">=", 1050), ("lang", "==", "go")], None),
    ([[("k", "<", 30)], [("lang", "==", "rust"), ("k", ">=", 3000)]], None),
    ([("path", "prefix", "dir2/")], ["path", "k"]),
    ([("lang", "in", ["go", "c"])], ["lang", "path"]),
    ([("k", "<", 1010)], ["path"]),  # the filter column is projected out
], ids=["conjunction", "dnf", "prefix", "in", "columns-without-filter-col"])
def test_filtered_decode_is_one_execution(job, monkeypatch, filt, columns):
    """The zone prune runs in the decode task, not as its own operator
    with a schema probe after it: one StreamingExecutor run per read."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from rayenc import decode_dataset

    out, src = job
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    ds = decode_dataset(_blocks(out), columns=columns, filter=filt)
    parts = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert len(runs) == 1
    want = _expected(src, filt, columns)
    assert want.num_rows > 0
    got = pa.concat_tables(parts)
    assert got.column_names == want.column_names
    assert _sorted(got).equals(_sorted(want))


def test_fully_pruned_batches_keep_the_projected_schema(job):
    """Blocks of three of the four files are pruned by their zones; each
    of those batches still yields a typed zero-row table, so the read's
    blocks concatenate (a zero-column table there raised ArrowInvalid)."""
    from pathlib import Path

    import ray

    from rayenc import decode_dataset
    from rayenc.decode import zone_keep_mask

    out, src = job
    filt = [("k", "<", 1000)]
    kept = [
        pc.sum(zone_keep_mask(pq.read_table(f, columns=["zonemap"]), [filt])).as_py()
        for f in sorted(Path(out, "blocks").glob("*.parquet"))
    ]
    assert sorted(kept) == [0] * (FILES - 1) + [2]
    for columns in (["path", "ts"], None):
        ds = decode_dataset(_blocks(out), columns=columns, filter=filt)
        parts = ray.get(ds.to_arrow_refs())
        assert any(p.num_rows == 0 for p in parts)
        got = pa.concat_tables(parts)
        want = _expected(src, filt, columns)
        assert got.schema == want.schema
        assert _sorted(got).equals(_sorted(want))


def test_filter_that_prunes_every_block_gives_typed_zero_rows(job):
    import ray

    from rayenc import decode_dataset
    from rayenc.decode import decode_ordered

    out, src = job
    filt = [("k", ">", 10**9)]
    ds = decode_dataset(_blocks(out), columns=["ts", "lang"], filter=filt)
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.num_rows == 0
    assert got.schema == src.select(["ts", "lang"]).schema
    full = pa.concat_tables(ray.get(
        decode_dataset(_blocks(out), filter=filt, with_provenance=True)
        .to_arrow_refs()))
    assert full.num_rows == 0
    assert full.select(src.column_names).schema == src.schema
    assert full.schema.field("_row_start").type == pa.int64()
    assert decode_ordered(_blocks(out), filter=filt).count() == 0


def test_empty_types_columns_from_headers_without_decoding(monkeypatch):
    """BlockDecoder.empty gives the decoded schema from blob headers:
    flat types never decode a payload; paged blobs ask their first
    page; nested types fall back to a zero-row decode_rows."""
    import rayenc.blocks
    from rayenc.decode import BlockDecoder
    from rayenc.encode import BlockEncoder

    n = 50
    flat = pa.table({
        "i": pa.array(range(n), type=pa.int32()),
        "f": pa.array([x / 3 for x in range(n)]),
        "s": pa.array([f"v{x % 4}" if x % 5 else None for x in range(n)]),
        "ls": pa.array([f"w{x}" for x in range(n)], type=pa.large_string()),
        "b": pa.array([x % 2 == 0 for x in range(n)]),
        "ts": pa.array(range(n), type=pa.timestamp("us", tz="UTC")),
        "d": pa.array([decimal.Decimal(x) / 100 for x in range(n)],
                      type=pa.decimal128(10, 2)),
    })
    nested = pa.table({
        "l": pa.array([[x, x + 1] for x in range(n)], type=pa.list_(pa.int64())),
        "st": pa.array([{"a": x, "b": str(x)} for x in range(n)]),
    })
    for stats in ("block", "page"):
        enc = BlockEncoder(hash_column=None, stats=stats, page_rows=16)
        block = enc.encode_table(flat)
        want = BlockDecoder(with_provenance=True)(block).schema
        with monkeypatch.context() as m:
            m.setattr(rayenc.blocks, "decode_column", None)
            m.setattr(rayenc.blocks, "decode_rows", None)
            empty = BlockDecoder(with_provenance=True).empty(block)
        assert empty.num_rows == 0 and empty.schema == want
        nblock = enc.encode_table(nested)
        assert BlockDecoder().empty(nblock).schema == BlockDecoder()(nblock).schema
    missing = BlockDecoder(columns=["i", "gone"], fill_missing={"gone": pa.string()})
    got = missing.empty(BlockEncoder(hash_column=None).encode_table(flat))
    assert got.schema == pa.schema([("i", pa.int32()), ("gone", pa.string())])
