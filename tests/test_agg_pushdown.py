"""Aggregate pushdown over the block table: zone-proven counts and
zones-only min/max — boundary blocks are the only ones that decode."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from rayenc import encode_dataset
from rayenc.decode import agg_count, agg_min_max, zone_must_match


def test_zone_must_match_rules():
    z = {"k": {"min": 10, "max": 20, "null_count": 0}}
    assert zone_must_match(z, [("k", ">=", 10)])
    assert zone_must_match(z, [("k", "<=", 20)])
    assert zone_must_match(z, [("k", ">", 9)])
    assert zone_must_match(z, [("k", "<", 21)])
    assert zone_must_match(z, [("k", "!=", 5)])
    assert not zone_must_match(z, [("k", ">=", 11)])
    assert not zone_must_match(z, [("k", "==", 10)])
    assert zone_must_match({"k": {"min": 7, "max": 7, "null_count": 0}}, [("k", "==", 7)])
    assert zone_must_match(
        {"k": {"min": 7, "max": 7, "null_count": 0}}, [("k", "in", [6, 7])]
    )
    # nulls, missing zones, incomparable types never prove
    assert not zone_must_match({"k": {"min": 10, "max": 20, "null_count": 1}}, [("k", ">", 0)])
    assert not zone_must_match({}, [("k", ">", 0)])
    assert not zone_must_match(z, [("k", ">", "str")])
    assert not zone_must_match(z, [("k", "~op~", 1)])


def _blocks(ray_session_tag=None):
    ids = np.arange(1000, dtype=np.int64)
    vals = np.where(ids % 97 == 0, None, ids * 3)
    t = pa.table(
        {
            "doc_id": pa.array(ids),
            "v": pa.array(vals, type=pa.int64()),  # has nulls
            "body": pa.array(["x" * 50] * 1000),
        }
    )
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=100, hash_column=None, concurrency=2,
        stats="page", page_rows=25,
    ).materialize()
    return t, blocks


def test_agg_count_matches_exact(ray_session):
    t, blocks = _blocks()
    ids = t["doc_id"].to_numpy()
    v = t["v"].to_numpy(zero_copy_only=False)

    assert agg_count(blocks) == 1000  # unfiltered: pure n_rows sum

    # range straddling block boundaries: interior blocks prove ALL,
    # boundary blocks decode
    assert agg_count(blocks, [("doc_id", ">=", 150), ("doc_id", "<", 730)]) == int(
        ((ids >= 150) & (ids < 730)).sum()
    )
    # nulls never match a comparison (v has nulls -> blocks can't prove)
    got = agg_count(blocks, [("v", ">=", 300)])
    expect = int((~np.isnan(v.astype(float)) & (v.astype(float) >= 300)).sum())
    assert got == expect
    # equality + in + DNF
    assert agg_count(blocks, [("doc_id", "==", 42)]) == 1
    assert agg_count(blocks, [("doc_id", "in", [5, 500, 5000])]) == 2
    assert agg_count(blocks, [[("doc_id", "<", 10)], [("doc_id", ">=", 990)]]) == 20
    # empty result
    assert agg_count(blocks, [("doc_id", ">", 10_000)]) == 0


def test_agg_count_timestamp_filter(ray_session):
    """Temporal columns count on their epoch-int view (the filter and
    zone convention): a late-window predicate proves most blocks out."""
    us = np.arange(0, 2_000_000, 1000, dtype=np.int64)  # 2000 ts-ordered rows
    t = pa.table({"ts": pa.array(us, type=pa.timestamp("us"))})
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=200, hash_column=None, concurrency=2
    ).materialize()
    cut = int(us[1700])
    assert agg_count(blocks, [("ts", ">=", cut)]) == int((us >= cut).sum())
    assert agg_count(blocks, [("ts", "<", int(us[37]))]) == 37


def test_agg_min_max_zones_only(ray_session):
    t, blocks = _blocks()
    r = agg_min_max(blocks, "doc_id")
    assert (r["min"], r["max"], r["null_count"], r["n_rows"]) == (0, 999, 0, 1000)
    rv = agg_min_max(blocks, "v")
    vv = t["v"].to_numpy(zero_copy_only=False).astype(float)
    assert rv["min"] == int(np.nanmin(vv)) and rv["max"] == int(np.nanmax(vv))
    assert rv["null_count"] == int(np.isnan(vv).sum())
    # no zone for the column -> named error, never a silent decode
    none_blocks = encode_dataset(
        rd.from_arrow(t.select(["doc_id"])), block_rows=500, hash_column=None,
        concurrency=1, stats="none",
    ).materialize()
    # the ValueError surfaces wrapped in Ray's task-error envelope
    with pytest.raises(Exception, match="no zone"):
        agg_min_max(none_blocks, "doc_id")


# --- agg_approx_distinct over per-block HLL sketches (hll=True encodes) ---


def _hll_blocks(n=20_000, distinct=3_000, block_rows=1_000, hll_b=10, hll=True):
    rng = np.random.default_rng(5)
    users = rng.integers(0, distinct, size=n)
    t = pa.table(
        {
            "user": pa.array([f"user-{u:06d}" for u in users]),
            "score": pa.array(rng.integers(0, 500, size=n), type=pa.int64()),
            # nulls don't count toward the distinct estimate
            "maybe": pa.array(
                [None if i % 7 == 0 else int(users[i]) % 100 for i in range(n)],
                type=pa.int64(),
            ),
        }
    )
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=block_rows, hash_column=None,
        concurrency=2, hll=hll, hll_b=hll_b,
    ).materialize()
    return t, blocks


def test_agg_approx_distinct_matches_single_pass_sketch(ray_session):
    """Per-block registers max-merge to EXACTLY the registers a single
    pass over the whole column yields (fixed hash seed, associative max)
    — so the metadata-only estimate equals the data-level sketch's, and
    both sit within a few % of the true cardinality."""
    from rayenc.decode import agg_approx_distinct
    from rayenc.stages.sketch import hll_estimate, hll_partial

    t, blocks = _hll_blocks()
    est = agg_approx_distinct(blocks, "user")
    single = hll_estimate(hll_partial(t["user"].combine_chunks(), b=10))
    assert est == pytest.approx(single)  # register-identical merge
    true = len(set(t["user"].to_pylist()))
    assert abs(est - true) / true < 0.05

    # non-null distinct only, and int columns work through the same path
    est_m = agg_approx_distinct(blocks, "maybe")
    true_m = len(set(v for v in t["maybe"].to_pylist() if v is not None))
    assert abs(est_m - true_m) / true_m < 0.15  # 100 distinct at b=10


def test_agg_approx_distinct_requires_sketch(ray_session):
    from rayenc.decode import agg_approx_distinct

    _, blocks = _hll_blocks(n=2_000, hll=False)
    with pytest.raises(Exception, match="no HLL sketch"):
        agg_approx_distinct(blocks, "user")


def test_agg_approx_distinct_mixed_precision_raises(ray_session):
    from rayenc.decode import agg_approx_distinct

    _, b1 = _hll_blocks(n=2_000, hll_b=10)
    _, b2 = _hll_blocks(n=2_000, hll_b=8)
    with pytest.raises(ValueError, match="different.*precision"):
        agg_approx_distinct(b1.union(b2), "user")
    # both precisions in ONE block table, so they meet inside one fold
    # task rather than on the driver: the same named error, wrapped in
    # Ray's task-error envelope
    import ray

    mixed = pa.concat_tables(
        [t for b in (b1, b2) for t in ray.get(b.to_arrow_refs())]
    )
    with pytest.raises(Exception, match="different.*precision"):
        agg_approx_distinct(rd.from_arrow(mixed), "user")


def test_hll_reserved_column_name_raises(ray_session):
    t = pa.table({"__hll__": pa.array([1, 2, 3], type=pa.int64())})
    with pytest.raises(Exception, match="reserved"):
        encode_dataset(
            rd.from_arrow(t), block_rows=10, hash_column=None, concurrency=1
        ).materialize()


def test_check_zones_audits_hll(ray_session):
    """A corrupt HLL sketch (silently skews agg_approx_distinct, invisible
    to the content hash) is caught by the paranoid zone audit."""
    import base64
    import json

    from rayenc.verify import verify_blocks

    _, blocks = _hll_blocks(n=2_000, block_rows=500)
    tbl = pa.concat_tables(
        blocks.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert verify_blocks(rd.from_arrow(tbl), hash_column=None, check_zones=True)["ok"]

    # zero out one block's registers for `user`
    zms = tbl["zonemap"].to_pylist()
    zm = json.loads(zms[0])
    regs = base64.b64decode(zm["__hll__"]["user"])
    zm["__hll__"]["user"] = base64.b64encode(b"\x00" * len(regs)).decode()
    zms[0] = json.dumps(zm, separators=(",", ":"))
    bad = tbl.set_column(
        tbl.schema.get_field_index("zonemap"), "zonemap", pa.array(zms)
    )
    r = verify_blocks(rd.from_arrow(bad), hash_column=None, check_zones=True)
    assert not r["ok"]


# --- agg_sum: exact SUM pushdown over stored per-block sums ---


def test_agg_sum_unfiltered_and_filtered(ray_session):
    from rayenc.decode import agg_sum
    from rayenc import count_decoded_blocks

    rng = np.random.default_rng(9)
    n = 5_000
    ids = np.arange(n, dtype=np.int64)
    vals = rng.integers(-1000, 1000, size=n)
    t = pa.table(
        {
            "doc_id": pa.array(ids),
            "v": pa.array(vals, type=pa.int64()),
            "f": pa.array(vals.astype(np.float64) / 8),
        }
    )
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=500, hash_column=None, concurrency=2
    ).materialize()

    # unfiltered: pure metadata fold, exact
    assert agg_sum(blocks, "v") == int(vals.sum())
    assert agg_sum(blocks, "f") == pytest.approx(float(vals.sum()) / 8)

    # filtered: interior blocks fold stored sums, boundaries decode exact
    cut = 1_234
    want = int(vals[ids >= cut].sum())
    assert agg_sum(blocks, "v", [("doc_id", ">=", cut)]) == want
    # empty and full ranges
    assert agg_sum(blocks, "v", [("doc_id", ">", n)]) is None
    assert agg_sum(blocks, "v", [("doc_id", ">=", 0)]) == int(vals.sum())


def test_agg_sum_decode_fallback_on_overflow_risk(ray_session):
    from rayenc.decode import agg_sum

    big = 2**62
    t = pa.table({"v": pa.array([big, big, -big], type=pa.int64())})
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=3, hash_column=None, concurrency=1
    ).materialize()
    # no stored sum (overflow risk) -> decode path, folded in Python ints
    assert agg_sum(blocks, "v") == big


def test_agg_sum_null_and_type_errors(ray_session):
    from rayenc.decode import agg_sum

    t = pa.table(
        {
            "v": pa.array([None, None], type=pa.int64()),
            "s": pa.array(["a", "b"]),
        }
    )
    blocks = encode_dataset(
        rd.from_arrow(t), block_rows=2, hash_column=None, concurrency=1
    ).materialize()
    assert agg_sum(blocks, "v") is None  # SQL: SUM over all-NULL is NULL
    with pytest.raises(Exception, match="numeric"):
        agg_sum(blocks, "s")


def test_agg_count_float_nan_rows_never_overcount(ray_session):
    """pc.min_max skips NaN, so finite zone bounds say nothing about NaN
    rows (which fail every comparison): a fully-proven float block must
    not count its NaNs. Zones store a per-block NaN count; blocks with
    NaN never prove and decode exactly."""
    v = np.array([10.0, 20.0, np.nan, np.nan], dtype=np.float64)
    t = pa.table({"x": pa.array(v)})
    from rayenc import encode_dataset as enc

    bl = enc(rd.from_arrow(t), block_rows=4, hash_column=None, concurrency=1).materialize()
    assert agg_count(bl, [("x", ">=", 5.0)]) == 2
    assert agg_count(bl, [("x", "<", 100.0)]) == 2
    # a NaN-free float block still proves (metadata-only count)
    t2 = pa.table({"x": pa.array([1.5, 2.5, 3.5])})
    bl2 = enc(rd.from_arrow(t2), block_rows=3, hash_column=None, concurrency=1).materialize()
    assert agg_count(bl2, [("x", ">=", 0.0)]) == 3


def test_zone_must_match_float_nan_rules():
    fz = {"x": {"min": 1.0, "max": 9.0, "null_count": 0, "nan": 0}}
    assert zone_must_match(fz, [("x", ">=", 1.0)])
    nz = {"x": {"min": 1.0, "max": 9.0, "null_count": 0, "nan": 3}}
    assert not zone_must_match(nz, [("x", ">=", 1.0)])
    # legacy float zone (no nan count): never proves
    lz = {"x": {"min": 1.0, "max": 9.0, "null_count": 0}}
    assert not zone_must_match(lz, [("x", ">=", 1.0)])
    # integer zones unaffected
    iz = {"x": {"min": 1, "max": 9, "null_count": 0}}
    assert zone_must_match(iz, [("x", ">=", 1)])


def _kll_blocks(n=20_000, kll=True, **kw):
    rng = np.random.default_rng(11)
    vals = rng.lognormal(3.0, 1.0, n)
    vals[rng.integers(0, n, n // 50)] = np.nan  # some NaN noise
    t = pa.table(
        {
            "price": pa.array(vals, type=pa.float64()),
            "qty": pa.array(rng.integers(0, 1000, n), type=pa.int64()),
            "name": pa.array(["x"] * n),
        }
    )
    from rayenc import encode_dataset as enc

    blocks = enc(
        rd.from_arrow(t), block_rows=1000, hash_column=None, concurrency=2,
        kll=kll, **kw,
    ).materialize()
    return t, blocks


def test_agg_approx_quantiles_metadata_only(ray_session):
    """Per-block KLL sketches merge to whole-table quantiles within the
    sketch's rank-error bound — answered from zonemap metadata alone."""
    from rayenc.decode import agg_approx_quantiles

    t, blocks = _kll_blocks()
    qs = [0.1, 0.5, 0.9, 0.99]
    got = agg_approx_quantiles(blocks, "price", qs)
    finite = np.sort(t["price"].to_numpy(zero_copy_only=False))
    finite = finite[~np.isnan(finite)]
    for q, g in zip(qs, got):
        # rank error: position of the estimate within the sorted truth
        rank = np.searchsorted(finite, g) / len(finite)
        assert abs(rank - q) < 0.02, (q, g, rank)
    # int columns answer through the same float64 view
    got_q = agg_approx_quantiles(blocks, "qty", [0.5])[0]
    assert abs(got_q - 500) < 25


def test_agg_approx_quantiles_requires_sketch(ray_session):
    from rayenc.decode import agg_approx_quantiles

    _, blocks = _kll_blocks(n=2_000, kll=False)
    with pytest.raises(Exception, match="no KLL sketch"):
        agg_approx_quantiles(blocks, "price", [0.5])
    # string columns never carry a sketch even when kll=True
    _, blocks2 = _kll_blocks(n=2_000, kll=True)
    with pytest.raises(Exception, match="no KLL sketch"):
        agg_approx_quantiles(blocks2, "name", [0.5])


def test_kll_sketch_audited_by_check_zones(ray_session):
    """The content-derived compaction seed makes the per-block sketch a
    pure function of the column: check_zones re-derives it byte-exact,
    and a tampered sketch is caught."""
    import json as _json

    from rayenc.verify import verify_blocks

    _, blocks = _kll_blocks(n=4_000)
    v = verify_blocks(blocks, hash_column=None, check_zones=True)
    assert v["ok"] and v["zone_mismatches"] == 0

    def tamper(b: pa.Table) -> pa.Table:
        zms = []
        for s in b["zonemap"].to_pylist():
            z = _json.loads(s)
            sk = _json.loads(z["__kll__"]["price"])
            lvl = max(i for i, l in enumerate(sk["levels"]) if l)
            sk["levels"][lvl] = [x + 1.0 for x in sk["levels"][lvl]]
            z["__kll__"]["price"] = _json.dumps(sk)
            zms.append(_json.dumps(z))
        return b.set_column(
            b.column_names.index("zonemap"), "zonemap", pa.array(zms)
        )

    bad = blocks.map_batches(tamper, batch_format="pyarrow")
    v2 = verify_blocks(bad, hash_column=None, check_zones=True)
    assert v2["zone_mismatches"] > 0


def test_zone_may_match_neq_nan_rows_kept(ray_session):
    """A constant float block with NaN rows must NOT be pruned as
    provably empty under '!=': NaN != val is TRUE, so the NaN rows
    match (review finding — the NaN fix initially covered must_match
    only)."""
    from rayenc import encode_dataset as enc
    from rayenc.decode import decode_dataset, zone_may_match

    # unit level: constant zone + nan count
    z = {"x": {"min": 5.0, "max": 5.0, "null_count": 0, "nan": 1}}
    assert zone_may_match(z, [("x", "!=", 5.0)])
    z0 = {"x": {"min": 5.0, "max": 5.0, "null_count": 0, "nan": 0}}
    assert not zone_may_match(z0, [("x", "!=", 5.0)])
    # legacy float zone (no count): keep the block — sound, unpruned
    zl = {"x": {"min": 5.0, "max": 5.0, "null_count": 0}}
    assert zone_may_match(zl, [("x", "!=", 5.0)])
    # int constants still prune
    zi = {"x": {"min": 5, "max": 5, "null_count": 0}}
    assert not zone_may_match(zi, [("x", "!=", 5)])

    # end to end: the NaN row must survive a filtered decode and count
    v = np.array([5.0, 5.0, np.nan], dtype=np.float64)
    bl = enc(
        rd.from_arrow(pa.table({"x": pa.array(v)})), block_rows=3,
        hash_column=None, concurrency=1,
    ).materialize()
    got = pa.concat_tables(
        decode_dataset(bl, filter=[("x", "!=", 5.0)])
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert len(got) == 1 and np.isnan(got["x"][0].as_py())
    assert agg_count(bl, [("x", "!=", 5.0)]) == 1


def test_compact_preserves_kll_sketches(ray_session, tmp_path):
    """In-place compaction re-encodes under the job record's knobs: a
    kll=True job must still answer metadata quantiles afterwards
    (review finding: the compactor silently stripped __kll__)."""
    import pyarrow.parquet as pq

    from rayenc import run_encode_job
    from rayenc.decode import agg_approx_quantiles
    from rayenc.jobs import compact_job

    src = str(tmp_path / "src.parquet")
    rng = np.random.default_rng(5)
    pq.write_table(
        pa.table({"x": pa.array(rng.normal(0, 1, 4000))}), src,
        row_group_size=1000,
    )
    root = str(tmp_path / "job")
    run_encode_job(src, root, block_rows=100, hash_column=None, kll=True,
                   concurrency=2)
    s = compact_job(root, target_block_rows=1000)
    assert s["partitions_compacted"] > 0
    blocks = rd.read_parquet(root + "/blocks")
    got = agg_approx_quantiles(blocks, "x", [0.5])[0]
    assert abs(got) < 0.1  # median of N(0,1)


def test_agg_approx_quantiles_mixed_k_raises(ray_session):
    from rayenc import encode_dataset as enc
    from rayenc.decode import agg_approx_quantiles

    t = pa.table({"x": pa.array(np.arange(100, dtype=np.float64))})
    b1 = enc(rd.from_arrow(t), block_rows=100, hash_column=None,
             concurrency=1, kll=True, kll_k=64).materialize()
    b2 = enc(rd.from_arrow(t), block_rows=100, hash_column=None,
             concurrency=1, kll=True, kll_k=128).materialize()
    both = b1.union(b2)
    with pytest.raises(Exception, match="different k"):
        agg_approx_quantiles(both, "x", [0.5])


def test_zone_folds_agree_across_batchings(ray_session, tmp_path):
    """Every zone fold merges per block inside a task and per task on
    the driver with one merge, so the answer cannot depend on how the
    block table is cut into batches: the whole table as one batch and
    one block per batch agree, and the exact aggregates equal pyarrow
    over the source."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from rayenc import run_encode_job
    from rayenc.decode import (agg_approx_distinct, agg_sum, agg_topk,
                               count_decoded_blocks, explain_decode)

    n = 1_000
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({
        "doc_id": pa.array(ids),
        "v": pa.array(np.where(ids % 13 == 0, None, (ids * 7) % 500),
                      type=pa.int64()),
        "score": pa.array(((ids * 37) % 101) / 8),  # sums exactly in float
        "name": pa.array([f"n{i % 50:03d}" for i in ids]),
        "ts": pa.array(ids * 1_000, type=pa.timestamp("us")),
    })
    src = str(tmp_path / "src.parquet")
    pq.write_table(t, src, row_group_size=250)
    root = str(tmp_path / "job")
    run_encode_job(src, root, block_rows=100, hash_column=None, hll=True,
                   concurrency=1)
    table = pq.read_table(root + "/blocks")  # 12 blocks in 4 partitions
    whole = rd.from_arrow(table)
    per_block = rd.from_arrow([table.slice(i, 1) for i in range(table.num_rows)])

    rng = [("doc_id", ">=", 150), ("doc_id", "<", 730)]  # boundary blocks
    dnf = [[("doc_id", "<", 120)], [("name", "==", "n007")]]
    mask = pc.and_(pc.greater_equal(t["doc_id"], 150), pc.less(t["doc_id"], 730))

    def answers(blocks):
        return {
            "count": agg_count(blocks, rng),
            "count_dnf": agg_count(blocks, dnf),
            "sum": agg_sum(blocks, "v", rng),
            "sum_score": agg_sum(blocks, "score"),
            "min_max": agg_min_max(blocks, "ts"),
            "topk": agg_topk(blocks, "v", 5, tie_cols=["doc_id"],
                             extra_cols=["doc_id"], filter=rng).to_pylist(),
            "distinct": agg_approx_distinct(blocks, "name"),
            "explain": explain_decode(blocks, rng),
            "decoded": count_decoded_blocks(blocks, rng),
        }

    a, b = answers(whole), answers(per_block)
    assert a == b
    sel = t.filter(mask)
    assert a["count"] == sel.num_rows
    assert a["count_dnf"] == t.filter(pc.or_(
        pc.less(t["doc_id"], 120), pc.equal(t["name"], "n007"))).num_rows
    assert a["sum"] == pc.sum(sel["v"]).as_py()
    assert a["sum_score"] == pc.sum(t["score"]).as_py()
    ts = pc.min_max(t["ts"].cast(pa.int64()))
    assert (a["min_max"]["min"], a["min_max"]["max"]) == (
        ts["min"].as_py(), ts["max"].as_py())
    want = sel.filter(pc.is_valid(sel["v"])).sort_by(
        [("v", "descending"), ("doc_id", "ascending")])
    assert a["topk"] == want.select(["v", "doc_id"]).slice(0, 5).to_pylist()
    assert a["decoded"]["total_blocks"] == table.num_rows == 12
    assert a["decoded"]["decoded_blocks"] == a["explain"]["kept_blocks"] == 8
