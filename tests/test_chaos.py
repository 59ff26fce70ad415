"""Chaos tests: in-flight task-worker death during a distributed encode job.

tests/test_resume.py covers the DRIVER-level story (whole run killed,
rerun skips committed partitions). These tests cover the RAY-level
story: a worker process dies mid-job — the norm, not the exception, on
a multi-node cluster — and Ray's task retry on a fresh worker must
carry the job to a correct finish without any driver involvement.

The injection point is the worst crash window the sink has: the blocks
parquet for a partition is already published (durable output) but its
manifest entry is not yet committed. A retried attempt must re-encode
the partition and re-publish idempotently: deterministic output names,
attempt-unique staging files, last-wins atomic rename, one manifest
entry per partition.

The reference has no analog — its driver reprocesses everything on any
failure (/root/reference/scripts/process.sh:42-59).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import run_encode_job, verify_blocks


def test_actor_death_mid_job_completes_and_verifies(
    ray_session, corpus_parquet, tmp_path
):
    """Every partition's first attempt hard-exits its worker AFTER the
    blocks file is published and BEFORE the manifest commit; Ray retries
    and the job still finishes exactly-once correct."""
    out = str(tmp_path / "job")
    chaos = tmp_path / "chaos"
    chaos.mkdir()
    s = run_encode_job(
        corpus_parquet,
        out,
        block_rows=500,
        max_partition_bytes=1 << 20,
        concurrency=2,
        chaos_dir=str(chaos),
    )
    # the injection actually fired: one death flag per partition
    deaths = list(chaos.glob("*.died"))
    assert len(deaths) == s["partitions_total"] >= 2
    assert s["partitions_encoded"] == s["partitions_total"]
    assert s["rows"] == 3000

    # exactly-once at the sink: one blocks file and one manifest entry
    # per partition, no stragglers, no duplicates
    import ray.data as rd

    blocks = rd.read_parquet(f"{out}/blocks")
    tbl = blocks.select_columns(["partition_id", "n_rows"]).to_pandas()
    n_files = len(list((tmp_path / "job" / "blocks").glob("*.parquet")))
    assert tbl["partition_id"].nunique() == n_files == s["partitions_total"]
    assert tbl["n_rows"].sum() == 3000
    # per-row sha256 chain verify over the retried output
    v = verify_blocks(rd.read_parquet(f"{out}/blocks"))
    assert v["ok"], v

    # decoded content matches the source bit-for-bit
    from rayenc.decode import decode_dataset

    dec = decode_dataset(rd.read_parquet(f"{out}/blocks"), concurrency=2)
    src = pq.read_table(corpus_parquet)
    got = dec.to_pandas().sort_values("content").reset_index(drop=True)
    want = src.to_pandas().sort_values("content").reset_index(drop=True)
    assert got["content"].tolist() == want["content"].tolist()


def test_chaos_then_clean_rerun_is_noop(ray_session, corpus_parquet, tmp_path):
    """After a chaos-ridden run commits everything, a clean rerun skips
    every partition — retries did not corrupt the commit log."""
    out = str(tmp_path / "job")
    chaos = tmp_path / "chaos"
    chaos.mkdir()
    s1 = run_encode_job(
        corpus_parquet,
        out,
        block_rows=500,
        max_partition_bytes=1 << 20,
        concurrency=2,
        chaos_dir=str(chaos),
    )
    assert s1["partitions_encoded"] == s1["partitions_total"]
    s2 = run_encode_job(
        corpus_parquet,
        out,
        block_rows=500,
        max_partition_bytes=1 << 20,
        concurrency=2,
    )
    assert s2["partitions_encoded"] == 0
    assert s2["partitions_skipped"] == s1["partitions_total"]


def test_actor_death_mid_export_flat_and_hive(ray_session, corpus_parquet, tmp_path):
    """Exporter worker death in both commit protocols: the flat path dies
    right AFTER its atomic publish (the retry must skip on the part-file
    glob, not double-export), the hive path dies after the key files and
    BEFORE the _done marker (the retry must re-publish idempotently)."""
    from pathlib import Path

    from rayenc.jobs import run_export_job

    root = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet, root, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    src = pq.read_table(corpus_parquet)

    # flat path
    out = str(tmp_path / "export_flat")
    chaos = tmp_path / "chaos_flat"
    chaos.mkdir()
    e = run_export_job(root, out, concurrency=2, chaos_dir=str(chaos))
    assert len(list(chaos.glob("*.died"))) == s["partitions_total"]
    # every partition was handled exactly once across attempts: each is
    # either exported by the dying attempt (retry skips) or vice versa
    assert e["partitions_exported"] + e["partitions_skipped"] == s["partitions_total"]
    files = sorted(Path(out).glob("part-*.parquet"))
    assert len(files) == s["partitions_total"]
    got = pa.concat_tables([pq.read_table(f) for f in files])
    assert got.select(src.column_names).equals(src)

    # hive path
    out2 = str(tmp_path / "export_hive")
    chaos2 = tmp_path / "chaos_hive"
    chaos2.mkdir()
    e2 = run_export_job(
        root, out2, concurrency=2, partition_by=["lang"], chaos_dir=str(chaos2)
    )
    assert len(list(chaos2.glob("*.died"))) == s["partitions_total"]
    assert e2["partitions_exported"] == s["partitions_total"]
    got2 = pa.concat_tables(
        pq.read_table(f) for f in sorted(Path(out2).rglob("part-*.parquet"))
    )
    a = got2.select(src.column_names).sort_by([("content", "ascending")])
    b = src.sort_by([("content", "ascending")])
    assert a.equals(b)


def test_actor_death_mid_enrich_finishes_commit(ray_session, corpus_parquet, tmp_path):
    """Enricher worker death after the column is published but before the
    manifest commit: the Ray-retried attempt must take the commit-finish
    path — the column appears exactly once and the manifest catches up."""
    from rayenc.jobs import enrich_job
    from rayenc.manifest import Manifest

    root = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet, root, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    chaos = tmp_path / "chaos"
    chaos.mkdir()
    e = enrich_job(
        root, "n_tok", "n_tokens", input_column="content", chaos_dir=str(chaos)
    )
    assert len(list(chaos.glob("*.died"))) == s["partitions_total"]
    # each partition either enriched by the dying attempt (retry finished
    # the commit and reports skipped) or by the retry itself
    assert (
        e["partitions_enriched"] + e["partitions_skipped"] == s["partitions_total"]
    )
    for f in (tmp_path / "job" / "blocks").glob("*.parquet"):
        assert pq.read_schema(str(f)).names.count("col_n_tok") == 1
    m = Manifest(root)
    for entry in m.entries():
        assert entry["enrichments"][-1]["column"] == "n_tok"
        assert entry["columns"]["n_tok"]["enc_bytes"] > 0
    # chains untouched by enrichment, even across deaths
    import ray.data as rd

    assert verify_blocks(rd.read_parquet(f"{root}/blocks"))["ok"]
    # a clean rerun is a full skip
    e2 = enrich_job(root, "n_tok", "n_tokens", input_column="content")
    assert e2["partitions_enriched"] == 0


def test_actor_death_mid_delete_and_update_reconciles(
    ray_session, corpus_parquet, tmp_path
):
    """Deleter/updater worker death after the file swap and before the
    manifest commit: the retried attempt must RECONCILE the entry from
    the published file (rows/hashes/bytes + generation bump + crash
    lineage) — never double-apply, never leave manifest-behind-blocks
    drift (fsck must end green)."""
    from rayenc import delete_rows, fsck_job, update_rows
    from rayenc.manifest import Manifest

    root = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet, root, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    src = pq.read_table(corpus_parquet)
    langs = src["lang"].to_pylist()

    chaos_u = tmp_path / "chaos_u"
    chaos_u.mkdir()
    u = update_rows(
        root, [("lang", "==", "python")], set_values={"lang": "py"},
        chaos_dir=str(chaos_u),
    )
    assert len(list(chaos_u.glob("*.died"))) >= 1
    # an update's crash-recovered count is not derivable from the file,
    # so the retry summary may undercount — the STATE must be exact:
    import ray.data as rd

    from rayenc import decode_dataset

    dec = pa.concat_tables(
        decode_dataset(
            rd.read_parquet(f"{root}/blocks")
        ).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    got_langs = dec["lang"].to_pylist()
    assert "python" not in got_langs
    assert got_langs.count("py") == langs.count("python") > 0
    assert u["rows_updated"] <= langs.count("python")
    assert u["partitions_rewritten"] == sum(
        1 for e in Manifest(root).entries() if e.get("updates")
    )
    r = fsck_job(root)
    assert r["ok"], r["errors"]

    chaos_d = tmp_path / "chaos_d"
    chaos_d.mkdir()
    d = delete_rows(root, [("lang", "==", "ruby")], chaos_dir=str(chaos_d))
    assert len(list(chaos_d.glob("*.died"))) >= 1
    assert d["rows_deleted"] == langs.count("ruby") > 0
    r = fsck_job(root, deep=True)
    assert r["ok"], r["errors"]
    assert r["rows"] == len(langs) - langs.count("ruby")
    # crash-recovery lineage visible where a retry reconciled
    recovered = [
        e for e in Manifest(root).entries()
        if any(x.get("crash_recovered") for x in e.get("deletes", []))
    ]
    assert recovered, "at least one partition took the reconcile path"


def test_no_stale_tmp_breaks_reads(ray_session, corpus_parquet, tmp_path):
    """A staging file left behind by a dead attempt must be invisible to
    every reader: parquet dataset discovery, resume globs, verify."""
    out = str(tmp_path / "job")
    run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    blocks_dir = tmp_path / "job" / "blocks"
    # plant a stale attempt-unique staging file of garbage bytes
    some = next(blocks_dir.glob("*.parquet"))
    from rayenc.jobs import _tmp_path

    stale = _tmp_path(some)
    stale.write_bytes(b"\x00garbage not parquet")
    import ray.data as rd

    blocks = rd.read_parquet(str(blocks_dir))
    assert verify_blocks(blocks)["ok"]
    # two calls never collide on the same staging name (attempt-unique)
    assert _tmp_path(some).name != _tmp_path(some).name

    # vacuum removes exactly the stale staging file, never outputs
    from rayenc.jobs import vacuum_job

    before = sorted(p.name for p in blocks_dir.glob("*.parquet"))
    v0 = vacuum_job(out, max_age_s=3600)  # too young: kept
    assert v0["removed"] == 0 and stale.exists()
    v1 = vacuum_job(out, max_age_s=0)
    assert v1["removed"] == 1 and v1["bytes_freed"] == len(b"\x00garbage not parquet")
    assert not stale.exists()
    assert sorted(p.name for p in blocks_dir.glob("*.parquet")) == before
    assert verify_blocks(rd.read_parquet(str(blocks_dir)))["ok"]
