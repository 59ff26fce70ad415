"""fsck_job: structural manifest <-> blocks-file consistency audit —
the post-crash/post-DML companion to verify_blocks (which checks
content). Metadata-only by default; --deep adds the sha256 chain."""

import json
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayenc import (
    compact_job,
    delete_rows,
    enrich_job,
    fsck_job,
    run_encode_job,
    update_rows,
)
from rayenc.jobs import _column_summaries
from rayenc.manifest import Manifest


@pytest.fixture()
def job(ray_session, corpus_parquet, tmp_path):
    out = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet, out, block_rows=500, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s["partitions_total"] >= 2
    return out


def test_fsck_clean_dir_ok(job):
    r = fsck_job(job)
    assert r["ok"], r["errors"]
    assert r["rows"] == 3000 and r["orphans"] == [] and r["staging_files"] == 0


def _assert_summaries_match_files(job):
    for e in Manifest(job).entries():
        blocks = pq.read_table(e["output"], columns=["block_seq", "lineage"])
        assert e["columns"] == _column_summaries(blocks.sort_by("block_seq")), e[
            "partition_id"
        ]


def test_entry_summaries_follow_delete_and_update(job):
    """A rewrite re-folds the entry's per-column summaries from the
    blocks it commits: none keeps the encode-time codec counts/bytes."""
    delete_rows(job, [("lang", "==", "ruby")])
    _assert_summaries_match_files(job)
    update_rows(job, [("lang", "==", "python")], scrub={"content": [("def ", "fn ")]})
    _assert_summaries_match_files(job)


def test_fsck_ok_after_every_dml(ray_session, corpus_parquet, tmp_path):
    """encode + update + delete + compact + enrich: every entry and its
    summaries still agree with the files."""
    job = str(tmp_path / "job")
    s = run_encode_job(
        corpus_parquet, job, block_rows=100, max_partition_bytes=1 << 20, concurrency=2
    )
    assert s["partitions_total"] >= 2
    enrich_job(job, "nt", "n_tokens", input_column="content")
    update_rows(job, [("lang", "==", "python")], set_values={"lang": "py"})
    delete_rows(job, [("lang", "==", "ruby")])
    assert compact_job(job, target_block_rows=500)["partitions_compacted"] > 0
    enrich_job(job, "nc", "n_chars", input_column="content")
    _assert_summaries_match_files(job)
    r = fsck_job(job, deep=True)
    assert r["ok"], r["errors"]
    assert r["deep_verify"]["ok"]
    assert r["rows"] < 3000  # the delete removed rows and fsck agrees


def test_fsck_flags_summaries_that_disagree_with_the_entry(job):
    """Manifest-only check: the columns summaries' encoded bytes must sum
    to the entry's, and each column's codec counts to its blocks."""
    mfile = sorted(Path(job, "manifest").glob("*.json"))[0]
    good = mfile.read_text()
    e = json.loads(good)
    col = sorted(e["columns"])[0]
    e["columns"][col]["enc_bytes"] += 5
    mfile.write_text(json.dumps(e))
    r = fsck_job(job)
    assert not r["ok"]
    assert r["errors"] == [
        f"{e['partition_id']}: columns summaries sum to {e['encoded_bytes'] + 5} "
        f"encoded bytes, {e['encoded_bytes']} in manifest"
    ]
    e = json.loads(good)
    codec = sorted(e["columns"][col]["codecs"])[0]
    e["columns"][col]["codecs"][codec] += 1
    mfile.write_text(json.dumps(e))
    r = fsck_job(job)
    assert not r["ok"]
    assert r["errors"] == [
        f"{e['partition_id']}: column {col} codec counts sum to {e['blocks'] + 1} "
        f"blocks, {e['blocks']} in manifest"
    ]
    mfile.write_text(good)
    assert fsck_job(job)["ok"]


def test_fsck_detects_missing_file_orphan_and_drift(job):
    blocks = sorted(Path(job, "blocks").glob("*.parquet"))
    # orphan: a blocks-shaped file no manifest entry references
    orphan = blocks[0].with_name("deadbeef" + blocks[0].name)
    orphan.write_bytes(blocks[0].read_bytes())
    # missing: remove a referenced file
    victim = blocks[1]
    victim_bytes = victim.read_bytes()
    os.unlink(victim)
    r = fsck_job(job)
    assert not r["ok"]
    assert any("missing" in e for e in r["errors"])
    assert any("orphan" in e for e in r["errors"])
    # restore the file but corrupt the manifest's row count: drift caught
    victim.write_bytes(victim_bytes)
    os.unlink(orphan)
    mdir = Path(job, "manifest")
    mfile = sorted(mdir.glob("*.json"))[0]
    e = json.loads(mfile.read_text())
    e["rows"] = e["rows"] + 1
    mfile.write_text(json.dumps(e))
    r2 = fsck_job(job)
    assert not r2["ok"]
    assert any("rows in file" in x for x in r2["errors"])


def test_fsck_counts_staging_files(job):
    from rayenc.jobs import _tmp_path

    stale = _tmp_path(next(Path(job, "blocks").glob("*.parquet")))
    stale.write_bytes(b"junk")
    r = fsck_job(job)
    assert r["ok"] and r["staging_files"] == 1


def test_fsck_parallel_path_many_partitions(ray_session, corpus_parquet, tmp_path):
    """>8 partitions takes the Ray fan-out path; same verdict shape,
    and a planted drift in one partition still surfaces."""
    from rayenc.corpus import write_corpus

    src = write_corpus(str(tmp_path / "c.parquet"), 3000, row_group_size=125)
    out = str(tmp_path / "job")
    s = run_encode_job(
        src, out, block_rows=125, max_partition_bytes=120_000, concurrency=2
    )
    assert s["partitions_total"] > 8
    r = fsck_job(out)
    assert r["ok"] and r["rows"] == 3000 and r["partitions"] == s["partitions_total"]
    mfile = sorted(Path(out, "manifest").glob("*.json"))[3]
    e = json.loads(mfile.read_text())
    e["encoded_bytes"] += 7
    mfile.write_text(json.dumps(e))
    r2 = fsck_job(out)
    assert not r2["ok"] and any("encoded bytes" in x for x in r2["errors"])


def test_fsck_not_a_job_dir(tmp_path):
    r = fsck_job(str(tmp_path / "nowhere"))
    assert not r["ok"] and "no job record" in r["errors"][0]
