"""Round-5 self-review regression tests (queries layer).

The codec/backfill findings from the same review live next to their
subjects (test_codecs.py, test_compact.py, test_cnative.py); this file
holds the query-level ones."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import pyarrow.parquet as pq


def test_selector_stats_by_lang_sum_over_all_null_is_null(ray_session, tmp_path):
    """SQL parity through the driver fold: a lang whose n_chars values
    are ALL NULL must emit total_chars = NULL (SUM over all-NULL), not
    0 — grouped_agg_lowcard enforces min_count=1 in the partials and
    the per-lang pandas fold must preserve it."""
    from rayenc.pipelines.queries import QUERIES

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(6), type=pa.int64()),
            "text": pa.array(["x"] * 6, type=pa.string()),
            "lang": pa.array(["en", "en", "xx", "xx", "de", "de"]),
            "source": pa.array(["s0", "s1", "s0", "s0", "s1", "s1"]),
            "n_chars": pa.array([5, 7, None, None, 3, None], type=pa.int64()),
        }
    )
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")

    out = QUERIES["selector_stats_by_lang"](str(d))
    rows = {r["lang"]: r for r in out.to_pylist()}
    assert rows["en"]["total_chars"] == 12
    assert rows["de"]["total_chars"] == 3  # partial-NULL sums skip nulls
    assert rows["xx"]["total_chars"] is None  # all-NULL -> NULL, not 0
    assert rows["xx"]["n_docs"] == 2


def test_agg_sum_overflow_fallback_exact(ray_session):
    """Blocks whose worst-case sum could overflow int64 skip the stored
    zone sum and take the decode path — which must fold in Python ints:
    pc.sum silently WRAPS int64 (review finding: [2**62]*4 summed to 0)."""
    import ray.data as rd

    from rayenc.decode import agg_sum
    from rayenc.encode import encode_dataset

    t = pa.table({"v": pa.array([2**62] * 4, type=pa.int64())})
    blocks = encode_dataset(rd.from_arrow(t), block_rows=4, hash_column=None).materialize()
    assert agg_sum(blocks, "v") == 2**64  # exact, beyond int64


def test_agg_empty_block_table_graceful(ray_session):
    """An empty block table (empty source / fully-pruned dataset) must
    yield COUNT 0 and SUM None, not a NoneType crash."""
    import ray.data as rd

    from rayenc.decode import agg_count, agg_sum

    empty = rd.from_items([])
    assert agg_count(empty) == 0
    assert agg_count(empty, [("v", "==", 1)]) == 0
    assert agg_sum(empty, "v") is None


def test_decode_dataset_unknown_column_raises(ray_session):
    """A misspelled projection column must fail LOUDLY (it used to be
    silently dropped, returning an empty/narrower dataset), while
    fill_missing still admits columns a block legitimately predates."""
    import ray.data as rd

    from rayenc.decode import decode_dataset
    from rayenc.encode import encode_dataset

    t = pa.table({"a": pa.array([1, 2, 3], type=pa.int64())})
    blocks = encode_dataset(rd.from_arrow(t), block_rows=2, hash_column=None).materialize()
    with pytest.raises(ValueError, match="not in the block table"):
        decode_dataset(blocks, columns=["typo"])
    with pytest.raises(ValueError, match="not in the block table"):
        decode_dataset(blocks, columns=["a", "typo"])
    # schema evolution: a fill_missing column is allowed through
    out = decode_dataset(
        blocks, columns=["a", "later"], fill_missing={"later": pa.int64()}
    ).take_all()
    assert len(out) == 3 and all(r["later"] is None for r in out)


def test_partition_bases_modular_checksum_at_huge_offsets(ray_session):
    """The telescoping tiling check compares end^2-start^2 MODULO 2^64
    (Arrow multiply/sum wrap int64 silently): a valid partition whose
    offsets pass ~3e9 rows must not spuriously fail, and corruption at
    that scale must still raise."""
    import ray.data as rd

    from rayenc.decode import _partition_bases

    n = 1_500_000_000
    rows = [
        {"partition_seq": 0, "block_seq": i, "n_rows": n, "row_start": i * n}
        for i in range(3)  # tiles [0, 4.5e9): end^2 wraps int64
    ]
    blocks = rd.from_arrow(pa.Table.from_pylist(rows))
    _, bases, total = _partition_bases(blocks)
    assert bases == {0: 0} and total == 3 * n

    bad = [dict(r) for r in rows]
    bad[1]["row_start"] += 7  # overlapping/missing span
    with pytest.raises(ValueError, match="total order"):
        _partition_bases(rd.from_arrow(pa.Table.from_pylist(bad)))


def test_runoff_respects_enc_cap():
    """When enc_cap excluded the opposite family from the trials, the
    full-payload runoff must NOT re-admit it (review finding: the
    default fsst@9 rival bypassed the encode-cost gate and could cache a
    gated-out codec for every subsequent block); without a cap the
    runoff still fires."""
    import numpy as np

    from rayenc import selector as sel

    rng = np.random.default_rng(5)
    words = [f"w{i:03d}" for i in range(200)]
    arr = pa.array(
        [" ".join(words[j] for j in rng.integers(0, 200, size=800)) for _ in range(3600)]
    )
    blob, c = sel.encode_column_auto(arr, enc_cap=5.0)
    assert not any(k.startswith("runoff:") for k in c.trials), c.trials
    assert sel._enc_cost(c.codec) <= 5.0, c.codec
    _, c2 = sel.encode_column_auto(arr)
    assert any(k.startswith("runoff:") for k in c2.trials)


def test_sorted_stat_uint64_wraparound():
    """uint64 values >= 2^63 used to wrap negative through an int64 cast,
    recording a strictly DESCENDING column as sorted."""
    from rayenc.selector import column_stats

    desc = pa.array([2**63 + 5, 2**63 + 1, 7, 1], type=pa.uint64())
    assert column_stats(desc)["sorted"] is False
    asc = pa.array([1, 7, 2**63 + 1, 2**63 + 5], type=pa.uint64())
    assert column_stats(asc)["sorted"] is True


def test_agg_min_max_refuses_truncated_string_zones(ray_session):
    """Zone bounds for >64-char strings are truncated (sound for pruning,
    fabricated for exact aggregates): agg_min_max must refuse with a
    named error instead of returning strings that don't exist."""
    import ray.data as rd

    from rayenc.decode import agg_min_max
    from rayenc.encode import encode_dataset

    long = pa.table({"u": pa.array([("x%03d" % i) * 30 for i in range(50)])})
    blocks = encode_dataset(rd.from_arrow(long), block_rows=25, hash_column=None).materialize()
    with pytest.raises(Exception, match="truncated"):  # surfaces as RayTaskError
        agg_min_max(blocks, "u")
    # short strings keep exact zone bounds and still fold fine
    short = pa.table({"u": pa.array(["b", "a", "c", "aa"])})
    blocks2 = encode_dataset(rd.from_arrow(short), block_rows=2, hash_column=None).materialize()
    mm = agg_min_max(blocks2, "u")
    assert (mm["min"], mm["max"]) == ("a", "c")


def test_agg_min_max_all_nan_column(ray_session):
    """All-NaN float blocks store inf/-inf fold identities (sound for
    pruning); agg_min_max must report None/None, not the identities."""
    import ray.data as rd

    from rayenc.decode import agg_min_max
    from rayenc.encode import encode_dataset

    t = pa.table({"f": pa.array([float("nan")] * 8, type=pa.float64())})
    blocks = encode_dataset(rd.from_arrow(t), block_rows=4, hash_column=None).materialize()
    mm = agg_min_max(blocks, "f")
    assert mm["min"] is None and mm["max"] is None
    assert mm["n_rows"] == 8
