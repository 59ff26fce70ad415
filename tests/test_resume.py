"""Resumable-job tests: kill after k partitions, rerun, only the rest run.

The reference reprocesses everything on rerun
(/root/reference/scripts/process.sh:42-59); the north rule requires a
manifest commit log instead. These tests simulate partial completion by
pre-committing a subset of partitions and assert the rerun encodes only
the remainder, plus atomicity of the commit protocol.
"""

from __future__ import annotations

import json

import pyarrow.parquet as pq
import pytest

from rayenc import Manifest, plan_partitions, run_encode_job, verify_blocks


def test_plan_partitions_deterministic(corpus_parquet):
    p1 = plan_partitions(corpus_parquet, max_partition_bytes=1 << 20)
    p2 = plan_partitions(corpus_parquet, max_partition_bytes=1 << 20)
    assert [x["partition_id"] for x in p1] == [x["partition_id"] for x in p2]
    assert len(p1) > 1, "fixture should split into multiple partitions"
    # ranges tile the file's row groups without overlap
    md = pq.ParquetFile(corpus_parquet).metadata
    covered = []
    for part in p1:
        covered.extend(range(part["rg_start"], part["rg_end"] + 1))
    assert covered == list(range(md.num_row_groups))


def test_full_job_then_noop_rerun(ray_session, corpus_parquet, tmp_path):
    out = str(tmp_path / "job")
    s1 = run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s1["partitions_encoded"] == s1["partitions_total"] > 1
    assert s1["rows"] == 3000
    s2 = run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s2["partitions_encoded"] == 0
    assert s2["partitions_skipped"] == s1["partitions_total"]


def test_partial_completion_resumes_rest(ray_session, corpus_parquet, tmp_path):
    out = str(tmp_path / "job")
    parts = plan_partitions(corpus_parquet, max_partition_bytes=1 << 20)
    # simulate a killed run: job record written (as a real run would at
    # start), first k partitions committed, rest not
    from rayenc.jobs import job_params

    k = len(parts) // 2
    assert k >= 1
    m = Manifest(out)
    m.check_job(
        job_params(
            block_rows=500, max_partition_bytes=1 << 20, inputs=[corpus_parquet]
        )
    )
    for p in parts[:k]:
        m.commit(
            {
                "partition_id": p["partition_id"],
                "rows": 0,
                "blocks": 0,
                "source_bytes": 0,
                "encoded_bytes": 0,
            }
        )
    s = run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s["partitions_skipped"] == k
    assert s["partitions_encoded"] == len(parts) - k


def test_commit_is_atomic(tmp_path):
    m = Manifest(str(tmp_path))
    m.commit({"partition_id": "abc", "rows": 5})
    # no tmp litter
    leftovers = [p for p in (m.dir).iterdir() if p.suffix == ".tmp"]
    assert not leftovers
    assert m.committed_ids() == {"abc"}
    with open(m.entry_path("abc")) as f:
        assert json.load(f)["rows"] == 5


def test_job_output_verifies(ray_session, corpus_parquet, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "job")
    run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    blocks = rd.read_parquet(f"{out}/blocks")
    v = verify_blocks(blocks)
    assert v["ok"] and v["rows"] == 3000


def test_huge_content_rows_capped(ray_session, tmp_path):
    """A giant content value must not blow up block sizing: with a small
    max_block_bytes the partition splits into many small blocks (north
    rule: huge blobs cannot stall one actor)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    big = pa.table(
        {
            "repo": pa.array(["r"] * 40),
            "path": pa.array([f"p{i}" for i in range(40)]),
            "commit": pa.array(["c" * 40] * 40),
            "lang": pa.array(["python"] * 40),
            "content": pa.array(["x" * 200_000] * 40),  # 8 MB total
        }
    )
    src = str(tmp_path / "big.parquet")
    pq.write_table(big, src, row_group_size=40)
    out = str(tmp_path / "job")
    s = run_encode_job(
        src, out, block_rows=1000, max_block_bytes=1 << 20, concurrency=1
    )
    entry = Manifest(out).entries()[0]
    assert entry["blocks"] >= 8  # 8 MB / 1 MB cap
    import ray.data as rd

    assert verify_blocks(rd.read_parquet(f"{out}/blocks"))["ok"]


def test_write_read_blocks_roundtrip(ray_session, corpus_parquet, tmp_path):
    import pyarrow.parquet as pq

    import ray.data as rd

    from rayenc.encode import encode_dataset, read_blocks, write_blocks

    blocks = encode_dataset(
        rd.read_parquet(corpus_parquet), block_rows=1000, concurrency=2
    )
    out = str(tmp_path / "blocks_out")
    write_blocks(blocks, out)
    back = read_blocks(out)
    v = verify_blocks(back)
    assert v["ok"] and v["rows"] == pq.ParquetFile(corpus_parquet).metadata.num_rows


def test_filtered_job_prunes_row_groups(ray_session, corpus_parquet, tmp_path):
    """run_encode_job(filter=...): row-groups proven empty by parquet
    stats are never planned; the exact row filter holds on the rest."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    from rayenc.decode import decode_dataset
    from rayenc.jobs import plan_partitions, run_encode_job

    src = pq.read_table(corpus_parquet)
    # corpus is written in repo order; pick a repo value cutoff so some
    # row-groups are fully out of range (stats prune) and some are mixed
    cut = sorted(set(src["repo"].to_pylist()))[-1]
    full_plan = plan_partitions(corpus_parquet, max_partition_bytes=1 << 20)
    pred = [("repo", "==", cut)]
    pruned_plan = plan_partitions(
        corpus_parquet, max_partition_bytes=1 << 20, filter=pred
    )
    total_rgs = sum(p["rg_end"] - p["rg_start"] + 1 for p in full_plan)
    kept_rgs = sum(p["rg_end"] - p["rg_start"] + 1 for p in pruned_plan)
    assert kept_rgs < total_rgs

    out = str(tmp_path / "fjob")
    s = run_encode_job(
        corpus_parquet, out, block_rows=700, max_partition_bytes=1 << 20,
        concurrency=2, filter=pred, hash_column="content",
    )
    want = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{corpus_parquet}') WHERE repo = '{cut}'"
    ).fetchone()[0]
    assert s["rows"] == want
    blocks = rd.read_parquet(f"{out}/blocks")
    dec = decode_dataset(blocks, concurrency=2).to_pandas()
    assert len(dec) == want and (dec["repo"] == cut).all()


def test_resume_param_mismatch_raises(ray_session, corpus_parquet, tmp_path):
    """ADVICE r2: a rerun into an existing out_root with a different
    filter (or columns/hash) must raise, not silently mix predicates."""
    out = str(tmp_path / "job")
    run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    with pytest.raises(ValueError, match="parameter mismatch"):
        run_encode_job(
            corpus_parquet,
            out,
            block_rows=500,
            max_partition_bytes=1 << 20,
            concurrency=2,
            filter=[("repo", "==", "r1")],
        )
    with pytest.raises(ValueError, match="parameter mismatch"):
        run_encode_job(
            corpus_parquet,
            out,
            block_rows=500,
            max_partition_bytes=1 << 20,
            concurrency=2,
            columns=["repo", "content"],
        )
    # physical-layout drift (block_rows) is allowed: blobs are
    # self-describing, the row set is unchanged
    s = run_encode_job(
        corpus_parquet, out, block_rows=400, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s["partitions_encoded"] == 0


def test_resume_legacy_root_refused(corpus_parquet, tmp_path):
    """An out_root with committed partitions but no job record was
    written by the pre-record id scheme: refuse to resume (stale block
    files would silently duplicate rows)."""
    out = str(tmp_path / "job")
    m = Manifest(out)
    m.commit({"partition_id": "deadbeef", "rows": 0})
    with pytest.raises(ValueError, match="older"):
        run_encode_job(corpus_parquet, out, concurrency=2)


def test_resume_format_version_mismatch_refused(corpus_parquet, tmp_path):
    out = str(tmp_path / "job")
    m = Manifest(out)
    m.root.mkdir(parents=True, exist_ok=True)
    with open(m.job_record_path(), "w") as f:
        json.dump({"format_version": 1, "params": {}}, f)
    with pytest.raises(ValueError, match="format_version"):
        run_encode_job(corpus_parquet, out, concurrency=2)


def test_every_job_dir_entry_point_refuses_another_format_version(
    ray_session, corpus_parquet, tmp_path
):
    """A job dir recorded under any format_version but this one is
    refused by every entry point with the one check_format message:
    encode resume, delete, update, compact, enrich and export raise it
    before touching a file, and fsck reports it as its only error."""
    from rayenc import compact_job, delete_rows, enrich_many, fsck_job, update_rows
    from rayenc.jobs import run_export_job
    from rayenc.manifest import FORMAT_VERSION

    out = str(tmp_path / "job")
    run_encode_job(corpus_parquet, out, block_rows=100, concurrency=2)
    rec_path = tmp_path / "job" / "job.json"
    rec = json.loads(rec_path.read_text())
    rec["format_version"] = FORMAT_VERSION - 1
    rec_path.write_text(json.dumps(rec))

    def snapshot():
        return {f: f.read_bytes() for f in (tmp_path / "job").rglob("*") if f.is_file()}

    files = snapshot()

    calls = [
        lambda: run_encode_job(corpus_parquet, out, block_rows=100, concurrency=2),
        lambda: delete_rows(out, [("lang", "==", "go")]),
        lambda: update_rows(out, [("lang", "==", "go")], set_values={"lang": "golang"}),
        lambda: compact_job(out, target_block_rows=3000),
        lambda: enrich_many(out, {"nc": "n_chars"}),
        lambda: run_export_job(out, str(tmp_path / "export")),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="format_version") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1, messages
    msg = messages.pop()
    assert f"format_version {FORMAT_VERSION - 1}" in msg and "older" in msg
    report = fsck_job(out)
    assert report["ok"] is False and report["errors"] == [msg]
    assert snapshot() == files  # nothing written, renamed or removed


def test_resume_refuses_record_missing_a_strict_key(
    ray_session, corpus_parquet, tmp_path
):
    """Every record of this format_version holds every strict resume
    key, so one without a key is not accepted as a nothing-to-compare
    match: once partitions are committed the resume refuses."""
    from rayenc.manifest import STRICT_JOB_KEYS

    out = str(tmp_path / "job")
    s = run_encode_job(corpus_parquet, out, block_rows=500, concurrency=2)
    assert s["partitions_encoded"] > 0
    rec_path = tmp_path / "job" / "job.json"
    full = rec_path.read_text()
    for key in ("inputs", "max_partition_bytes", "hash_column"):
        assert key in STRICT_JOB_KEYS
        rec = json.loads(full)
        del rec["params"][key]
        rec_path.write_text(json.dumps(rec))
        with pytest.raises(ValueError, match=f"parameter mismatch.*'{key}'"):
            run_encode_job(corpus_parquet, out, block_rows=500, concurrency=2)
    rec_path.write_text(full)
    s = run_encode_job(corpus_parquet, out, block_rows=500, concurrency=2)
    assert s["partitions_encoded"] == 0


def test_concurrency_one_encodes_write_the_same_blocks(
    ray_session, corpus_parquet, tmp_path
):
    """Two run_encode_job calls at concurrency=1 write the same block
    files: one task at a time runs on one reused worker, so its first
    trial's cached codecs serve every later partition in plan order.
    Only the lineage's wall-clock fields (`ms`, and the trials'
    `enc_mbps`) may differ. This is the setting byte-equivalence checks of two code trees rely
    on; at the default concurrency which worker's trial a partition
    inherits varies from run to run (see run_encode_job)."""
    def blocks(out):
        files = {}
        for f in sorted((out / "blocks").glob("*.parquet")):
            t = pq.read_table(f)
            rows = t.to_pylist()
            for r in rows:
                r["lineage"] = {
                    c: {k: v for k, v in info.items() if k not in ("ms", "enc_mbps")}
                    for c, info in json.loads(r["lineage"]).items()}
            files[f.name] = (t.schema, rows)
        return files

    runs = []
    for k in range(2):
        out = tmp_path / f"job{k}"
        run_encode_job(corpus_parquet, str(out), block_rows=200,
                       max_partition_bytes=1 << 20, concurrency=1)
        runs.append(blocks(out))
    assert len(runs[0]) > 1, "fixture should span partitions"
    assert runs[0] == runs[1]


def test_job_filter_validated_on_driver(corpus_parquet, tmp_path):
    """Malformed job filters raise on the driver, not inside an encode
    actor mid-partition (same class as decode.validate_predicates)."""
    out = str(tmp_path / "job")
    with pytest.raises(ValueError, match="unknown predicate op"):
        run_encode_job(corpus_parquet, out, concurrency=2, filter=[("repo", "~", "r1")])
    with pytest.raises(ValueError, match="not in input schema"):
        run_encode_job(corpus_parquet, out, concurrency=2, filter=[("nope", "==", "x")])
    with pytest.raises(ValueError, match="'in' predicate"):
        run_encode_job(corpus_parquet, out, concurrency=2, filter=[("repo", "in", "r1")])
    with pytest.raises(ValueError, match="flat"):
        run_encode_job(
            corpus_parquet, out, concurrency=2, filter=[[("repo", "==", "r1")]]
        )


def test_job_filter_on_column_outside_projection(ray_session, corpus_parquet, tmp_path):
    """A filter column excluded by `columns` is read for filtering then
    dropped — the encoded schema honors `columns` and the row set honors
    the filter (round-3 review: this KeyError'd inside the actor)."""
    import duckdb
    import ray.data as rd

    from rayenc.decode import decode_dataset

    out = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet,
        out,
        columns=["repo", "content"],
        filter=[("lang", "==", "python")],
        hash_column="content",
        concurrency=2,
    )
    want = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{corpus_parquet}') WHERE lang = 'python'"
    ).fetchone()[0]
    assert s["rows"] == want
    dec = decode_dataset(rd.read_parquet(f"{out}/blocks"), concurrency=2).to_pandas()
    assert sorted(dec.columns) == ["content", "repo"]
    assert len(dec) == want


def test_projected_columns_validated_on_every_file(ray_session, tmp_path):
    """A `columns` name missing from one input file refuses at plan time,
    naming the file, before the job record or any partition is written.
    The row-group read drops unknown names, so the miss used to surface
    inside a task after another file's partition had committed, and the
    strict `columns` resume key then refused the corrected retry."""
    import pyarrow as pa

    from rayenc.jobs import encode_dataset_ordered

    p0, p1 = str(tmp_path / "p0.parquet"), str(tmp_path / "p1.parquet")
    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), p0)
    pq.write_table(pa.table({"a": [3, 4]}), p1)
    out = tmp_path / "job"
    with pytest.raises(ValueError, match="p1.parquet"):
        run_encode_job([p0, p1], str(out), columns=["a", "b"], hash_column=None,
                       concurrency=2)
    assert not (out / "job.json").exists()
    assert Manifest(str(out)).committed_ids() == set()
    with pytest.raises(ValueError, match="p1.parquet"):
        encode_dataset_ordered([p0, p1], columns=["a", "b"], hash_column=None)
    s = run_encode_job([p0, p1], str(out), columns=["a"], hash_column=None,
                       concurrency=2)
    assert s["partitions_encoded"] == 2 and s["rows"] == 4


def test_empty_input_list_with_filter(tmp_path):
    """Empty input list + filter: predicate shape checks still run, no
    IndexError (round-3 review)."""
    out = str(tmp_path / "job")
    with pytest.raises(ValueError, match="unknown predicate op"):
        run_encode_job([], out, concurrency=2, filter=[("x", "~", 1)])
    s = run_encode_job([], out, concurrency=2, filter=[("x", "==", 1)])
    assert s["partitions_total"] == 0
    # the round-4 ops are valid encode-job predicates too (fresh roots:
    # a different filter into the same root trips the strict identity gate)
    s = run_encode_job([], str(tmp_path / "job_ne"), concurrency=2, filter=[("x", "!=", 1)])
    assert s["partitions_total"] == 0
    s = run_encode_job(
        [], str(tmp_path / "job_in"), concurrency=2, filter=[("x", "in", [1, 2])]
    )
    assert s["partitions_total"] == 0


def test_job_accepts_enc_cap_and_forced_codecs(ray_session, corpus_parquet, tmp_path):
    """The resumable job exposes the flagship's round-4 operating-point
    knobs: forced per-column codecs (skip selection entirely) and the
    encode-speed gate; the job record stores them (non-strict: blocks
    are self-describing, so resumed partitions may mix codec choices)."""
    import json as _json

    import pyarrow as pa

    from rayenc.blocks import block_codec
    from rayenc.encode import read_blocks

    out = str(tmp_path / "job")
    forced = {"content": "plain", "lang": "dict"}
    s = run_encode_job(
        corpus_parquet,
        out,
        block_rows=1000,
        concurrency=2,
        enc_cap=10.0,
        forced_codecs=forced,
    )
    assert s["partitions_encoded"] > 0
    rec = _json.loads((tmp_path / "job" / "job.json").read_text())
    assert rec["params"]["enc_cap"] == 10.0
    assert rec["params"]["forced_codecs"] == {"content": "plain", "lang": "dict"}
    row = read_blocks(out + "/blocks").take(1)[0]
    assert block_codec(memoryview(row["col_content"]))["codec"].startswith("plain")
    assert verify_blocks(read_blocks(out + "/blocks"))["ok"]


def test_resume_refuses_changed_partition_bytes(ray_session, corpus_parquet, tmp_path):
    """max_partition_bytes changes the partition plan: every pid hashes to
    a new value, committed {old_pid}.parquet files stay in blocks/, and
    read_blocks would return every row twice. Resume must refuse."""
    import pytest as _pytest

    out = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s["partitions_encoded"] > 0
    with _pytest.raises(ValueError, match="max_partition_bytes"):
        run_encode_job(
            corpus_parquet,
            out,
            block_rows=500,
            max_partition_bytes=1 << 19,
            concurrency=2,
        )


def test_resume_refuses_changed_inputs(ray_session, corpus_parquet, tmp_path):
    """partition_seq ordinals are plan-order: resuming with an extra (or
    reordered) input reuses ordinals already committed under other files
    and silently corrupts decode_ordered's total order. Resume must
    refuse a changed resolved input list."""
    import shutil

    import pytest as _pytest

    out = str(tmp_path / "job")
    other = str(tmp_path / "other.parquet")
    shutil.copyfile(corpus_parquet, other)
    s = run_encode_job(corpus_parquet, out, block_rows=500, concurrency=2)
    assert s["partitions_encoded"] > 0
    with _pytest.raises(ValueError, match="inputs"):
        run_encode_job([other, corpus_parquet], out, block_rows=500, concurrency=2)


def test_block_byte_cap_counts_nested_payloads():
    """iter_blocks' byte cap must see string payload at EVERY nesting
    level: struct<body>, fixed_size_list<string> and map values used to
    count 8 bytes/row, letting giant blobs hide from max_block_bytes."""
    import pyarrow as pa

    from rayenc.jobs import iter_blocks

    mb = 1 << 20
    cases = [
        pa.table({"s": pa.array([{"body": "x" * mb} for _ in range(16)])}),
        pa.table(
            {
                "f": pa.array(
                    [["x" * (mb // 2)] * 2 for _ in range(16)],
                    type=pa.list_(pa.string(), 2),
                )
            }
        ),
        pa.table(
            {
                "m": pa.array(
                    [[("k", "v" * mb)] for _ in range(16)],
                    type=pa.map_(pa.string(), pa.string()),
                )
            }
        ),
    ]
    for t in cases:
        blocks = list(iter_blocks(t, 8192, mb))
        assert len(blocks) == 16, t.schema  # 1 MiB rows under a 1 MiB cap
    # small flat table still yields one block
    assert len(list(iter_blocks(pa.table({"i": list(range(100))}), 8192, mb))) == 1


def _gen_shard_file(path, n, start):
    """Tiny deterministic shard with a global row counter column."""
    import numpy as np
    import pyarrow as pa

    ids = np.arange(start, start + n, dtype=np.int64)
    t = pa.table(
        {
            "row_id": pa.array(ids),
            "body": pa.array([f"row-{i}" for i in ids]),
        }
    )
    pq.write_table(t, path, row_group_size=max(1, n // 4))
    return t


def test_append_mode_incremental_ingestion(ray_session, tmp_path):
    """append=True accepts a GROWN input list: existing partitions keep
    their ids/ordinals and skip; only the new files encode; ordered
    decode reads the inputs in list order across increments."""
    import pyarrow as pa
    import ray.data as rd

    from rayenc.decode import decode_ordered

    a = tmp_path / "day-01.parquet"
    b = tmp_path / "day-02.parquet"
    c = tmp_path / "day-03.parquet"
    ta = _gen_shard_file(a, 200, 0)
    tb = _gen_shard_file(b, 200, 200)
    out = str(tmp_path / "job")
    s1 = run_encode_job([str(a), str(b)], out, block_rows=50,
                        hash_column=None, concurrency=2)
    assert s1["partitions_encoded"] > 0

    # growth WITHOUT append still refuses (unchanged contract)
    tc = _gen_shard_file(c, 200, 400)
    with pytest.raises(ValueError, match="inputs"):
        run_encode_job([str(a), str(b), str(c)], out, block_rows=50,
                       hash_column=None, concurrency=2)

    s2 = run_encode_job([str(a), str(b), str(c)], out, block_rows=50,
                        hash_column=None, concurrency=2, append=True)
    assert s2["partitions_skipped"] == s1["partitions_total"]
    assert s2["partitions_encoded"] == s2["partitions_total"] - s1["partitions_total"]
    assert s2["rows"] == 200  # only the increment's rows encoded

    blocks = rd.read_parquet(out + "/blocks")
    dec = pa.concat_tables(
        decode_ordered(blocks).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    want = pa.concat_tables([ta, tb, tc])
    assert dec["row_id"].to_pylist() == want["row_id"].to_pylist()

    # append mode still refuses removal / reorder / mid-list insertion
    with pytest.raises(ValueError, match="inputs"):
        run_encode_job([str(a), str(c)], out, block_rows=50,
                       hash_column=None, concurrency=2, append=True)
    with pytest.raises(ValueError, match="inputs"):
        run_encode_job([str(b), str(a), str(c)], out, block_rows=50,
                       hash_column=None, concurrency=2, append=True)
    # and a no-op append rerun is clean
    s3 = run_encode_job([str(a), str(b), str(c)], out, block_rows=50,
                        hash_column=None, concurrency=2, append=True)
    assert s3["partitions_encoded"] == 0


def test_encode_job_in_filter_tuple_resumes_clean(ray_session, corpus_parquet, tmp_path):
    """job record must normalize 'in' values (tuple/set) to a sorted
    list: a set used to crash json.dump, a tuple used to spuriously
    refuse the identical resume."""
    out = str(tmp_path / "job")
    filt = [("lang", "in", ("python", "go"))]
    s1 = run_encode_job(corpus_parquet, out, block_rows=500, filter=filt,
                        concurrency=2)
    assert s1["partitions_encoded"] > 0
    s2 = run_encode_job(corpus_parquet, out, block_rows=500,
                        filter=[("lang", "in", {"go", "python"})], concurrency=2)
    assert s2["partitions_encoded"] == 0
