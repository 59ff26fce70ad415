"""Copy-on-write update_rows: matching rows are transformed in place
(constant SET and/or regex scrub), everything else is byte-identical,
row count/order and random access survive, and only the partitions that
hold matches rewrite. The flagship use is in-place PII redaction of an
already-encoded corpus (no full re-encode — the reference reprocesses
from scratch, /root/reference/scripts/process.sh:42-59)."""

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from rayenc import (
    decode_dataset,
    read_blocks_at,
    run_encode_job,
    update_rows,
    verify_blocks,
)
from rayenc.manifest import Manifest


def _table(n=2000, id_start=0, seed=3):
    rng = np.random.default_rng(seed + id_start)
    ids = np.arange(id_start, id_start + n, dtype=np.int64)
    mail = [
        f"contact reach-{i}@example.com for text-{i}" if i % 7 == 0 else f"text-{i}"
        for i in ids
    ]
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "lang": pa.array(rng.choice(["en", "de", "fr"], n).tolist()),
            "body": pa.array(mail),
        }
    )


def _decode_all(out) -> pa.Table:
    blocks = rd.read_parquet(f"{out}/blocks")
    return pa.concat_tables(
        decode_dataset(blocks).iter_batches(batch_size=None, batch_format="pyarrow")
    ).sort_by("doc_id")


def _job(tmp_path, n=2000, files=1, **kw):
    srcs = []
    for f in range(files):
        p = tmp_path / f"src{f:02d}.parquet"
        pq.write_table(_table(n, id_start=f * n), p, row_group_size=max(100, n // 4))
        srcs.append(str(p))
    out = tmp_path / "job"
    kw.setdefault("block_rows", 100)
    kw.setdefault("hash_column", "body")
    kw.setdefault("concurrency", 2)
    run_encode_job(srcs, str(out), **kw)
    return srcs, out


def test_set_updates_exactly_matching_rows(ray_session, tmp_path):
    srcs, out = _job(tmp_path, n=2000, files=2, max_partition_bytes=20_000)
    src = pa.concat_tables(pq.read_table(s) for s in srcs)
    n_de = int((np.array(src["lang"]) == "de").sum())
    s = update_rows(str(out), [("lang", "==", "de")], set_values={"lang": "xx"})
    assert s["rows_updated"] == n_de > 0
    got = _decode_all(out)
    langs = got["lang"].to_pylist()
    assert langs.count("xx") == n_de and "de" not in langs
    # every non-target column is untouched, row count and order intact
    assert got["doc_id"].to_pylist() == src.sort_by("doc_id")["doc_id"].to_pylist()
    assert got["body"].to_pylist() == src.sort_by("doc_id")["body"].to_pylist()
    # sha chains were re-derived at rewrite: verify still green
    assert verify_blocks(rd.read_parquet(f"{out}/blocks"), hash_column="body")["ok"]
    # idempotent: the SET falsified the filter
    s2 = update_rows(str(out), [("lang", "==", "de")], set_values={"lang": "xx"})
    assert s2["rows_updated"] == 0 and s2["partitions_rewritten"] == 0


def test_scrub_redacts_only_matching_rows(ray_session, tmp_path):
    srcs, out = _job(tmp_path, n=1400, files=1, max_partition_bytes=20_000)
    src = pq.read_table(srcs[0])
    s = update_rows(
        str(out),
        [("body", "contains", "@example.com")],
        scrub={"body": [(r"[\w.+-]+@[\w-]+\.[\w.]+", "[EMAIL]")]},
    )
    n_mail = sum("@example.com" in b for b in src["body"].to_pylist())
    assert s["rows_updated"] == n_mail > 0
    got = _decode_all(out)
    bodies = got["body"].to_pylist()
    assert not any("@example.com" in b for b in bodies)
    assert sum("[EMAIL]" in b for b in bodies) == n_mail
    # non-matching rows byte-identical
    want = [
        b for b in src["body"].to_pylist() if "@example.com" not in b
    ]
    assert sorted(b for b in bodies if "[EMAIL]" not in b) == sorted(want)
    # the scrub consumed its match: rerun is a no-op
    s2 = update_rows(
        str(out),
        [("body", "contains", "@example.com")],
        scrub={"body": [(r"[\w.+-]+@[\w-]+\.[\w.]+", "[EMAIL]")]},
    )
    assert s2["rows_updated"] == 0


def test_update_rewrites_only_matching_partitions(ray_session, tmp_path):
    srcs, out = _job(tmp_path, n=2000, files=2, max_partition_bytes=20_000)
    before = {
        f.name: f.stat().st_mtime_ns for f in (out / "blocks").glob("*.parquet")
    }
    # doc_id is block-ordered: a narrow id range touches few partitions
    s = update_rows(
        str(out),
        [("doc_id", ">=", 100), ("doc_id", "<", 150)],
        set_values={"lang": "zz"},
    )
    assert s["rows_updated"] == 50
    assert 1 <= s["partitions_rewritten"] < s["partitions_total"]
    after = {
        f.name: f.stat().st_mtime_ns for f in (out / "blocks").glob("*.parquet")
    }
    unchanged = [n for n in before if before[n] == after[n]]
    assert len(unchanged) == s["partitions_total"] - s["partitions_rewritten"]


def test_update_keeps_random_access_and_bumps_generation(ray_session, tmp_path):
    srcs, out = _job(tmp_path, n=1200, files=1, max_partition_bytes=20_000)
    m = Manifest(str(out))
    v = m.snapshot(note="pre-update")["version"]
    s = update_rows(str(out), [("doc_id", "==", 777)], set_values={"body": "gone"})
    assert s["rows_updated"] == 1
    # row_start random access still lands on the right rows
    from rayenc.decode import take_rows

    blocks = rd.read_parquet(f"{out}/blocks")
    got = take_rows(blocks, [776, 777, 778]).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == [776, 777, 778]
    assert got["body"].to_pylist()[1] == "gone"
    # stale snapshot refuses the rewritten partition
    with pytest.raises(Exception, match="generation|snapshot"):
        read_blocks_at(str(out), v).materialize()
    # update lineage recorded in manifest + audit log
    entry = next(e for e in m.entries() if e.get("updates"))
    assert entry["updates"][0]["rows_updated"] == 1
    assert json.loads((out / "updates.log").read_text().splitlines()[-1])[
        "rows_updated"
    ] == 1


def test_update_and_delete_accept_dnf_filters(ray_session, tmp_path):
    """OR-of-conjunctions: one update/delete call covers disjoint row
    sets (e.g. 'lang de OR id range') instead of N sequential rewrites
    of the same partitions."""
    from rayenc import delete_rows

    srcs, out = _job(tmp_path, n=2000, files=1)
    src = pq.read_table(srcs[0])
    langs = np.array(src["lang"])
    ids = np.array(src["doc_id"])
    want = int(((langs == "de") | ((ids >= 100) & (ids < 120))).sum())
    s = update_rows(
        str(out),
        [[("lang", "==", "de")], [("doc_id", ">=", 100), ("doc_id", "<", 120)]],
        set_values={"lang": "xx"},
    )
    assert s["rows_updated"] == want > 0
    got = _decode_all(out)
    assert got["lang"].to_pylist().count("xx") == want
    # DNF recorded in the audit log as a list of conjunctions
    rec = json.loads((out / "updates.log").read_text().splitlines()[-1])
    assert rec["filter"] == [
        [["lang", "==", "de"]],
        [["doc_id", ">=", 100], ["doc_id", "<", 120]],
    ]
    # DNF delete removes the union too (extra id chosen OUTSIDE the
    # updated set so the two disjuncts are disjoint)
    extra = int(ids[(langs != "de") & (ids >= 120)][-1])
    d = delete_rows(
        str(out),
        [[("lang", "==", "xx")], [("doc_id", "==", extra)]],
    )
    assert d["rows_deleted"] == want + 1
    left = _decode_all(out)
    assert "xx" not in left["lang"].to_pylist()
    assert extra not in left["doc_id"].to_pylist()
    # empty conjunction (match-all disjunct) refuses loudly
    with pytest.raises(ValueError, match="empty conjunction"):
        update_rows(str(out), [[("lang", "==", "fr")], []],
                    set_values={"lang": "yy"})


def test_dml_on_copied_job_dir_leaves_original_untouched(ray_session, tmp_path):
    """A job dir is a portable unit: manifest entries record the writer's
    absolute output path, so without read-time rebasing a mutation on a
    COPY would rewrite the ORIGINAL dir's files (found live by the demo
    drive). Delete/update/enrich on the copy must touch only the copy."""
    import shutil

    from rayenc import delete_rows, enrich_job

    srcs, out = _job(tmp_path, n=1200, files=1)
    copy = tmp_path / "job_copy"
    shutil.copytree(out, copy)
    orig_bytes = {
        f.name: f.read_bytes() for f in (out / "blocks").glob("*.parquet")
    }
    d = delete_rows(str(copy), [("lang", "==", "de")])
    assert d["rows_deleted"] > 0
    u = update_rows(str(copy), [("lang", "==", "en")], set_values={"lang": "xx"})
    assert u["rows_updated"] > 0
    e = enrich_job(str(copy), "nt", "n_tokens", input_column="body")
    assert e["partitions_enriched"] > 0
    # original bytes bit-identical
    for f in (out / "blocks").glob("*.parquet"):
        assert f.read_bytes() == orig_bytes[f.name], f.name
    # the copy carries all three mutations
    got = _decode_all(copy)
    langs = got["lang"].to_pylist()
    assert "de" not in langs and "en" not in langs and "xx" in langs
    assert "nt" in got.column_names


def test_dml_on_torn_copy_fails_loudly_and_never_touches_original(
    ray_session, tmp_path
):
    """An interrupted copy (one blocks file missing) must NOT fall back
    to the recorded absolute path: the mutation on the torn copy fails
    loudly and the original dir stays byte-identical."""
    import shutil

    from rayenc import delete_rows, fsck_job

    srcs, out = _job(tmp_path, n=2000, files=2)
    copy = tmp_path / "torn_copy"
    shutil.copytree(out, copy)
    victim = sorted((copy / "blocks").glob("*.parquet"))[0]
    victim.unlink()  # simulate the interrupted cp
    orig_bytes = {
        f.name: f.read_bytes() for f in (out / "blocks").glob("*.parquet")
    }
    with pytest.raises(Exception):  # loud failure, not silent cross-write
        delete_rows(str(copy), [("lang", "==", "de")])
    for f in (out / "blocks").glob("*.parquet"):
        assert f.read_bytes() == orig_bytes[f.name], f.name
    assert fsck_job(str(out))["ok"]
    r = fsck_job(str(copy))
    assert not r["ok"] and any("missing" in e for e in r["errors"])


def test_update_target_must_exist_in_every_partition(ray_session, tmp_path):
    """A half-enriched dir (legal resumable state) must refuse an update
    targeting the enriched column at the DRIVER — not fail actor-side
    after some partitions already rewrote."""
    from rayenc import enrich_job
    from rayenc.manifest import Manifest

    srcs, out = _job(tmp_path, n=2000, files=2)
    enrich_job(str(out), "nt", "n_tokens", input_column="body")
    # roll ONE partition's manifest entry back to the pre-enrich state
    # (published-but-uncommitted crash shape)
    m = Manifest(str(out))
    e = next(iter(m.entries()))
    rolled = dict(e)
    rolled.pop("enrichments")
    cols = dict(rolled["columns"])
    cols.pop("nt")
    rolled["columns"] = cols
    m.commit(rolled)
    with pytest.raises(ValueError, match="finish the pending enrich"):
        update_rows(str(out), [("lang", "==", "de")], set_values={"nt": 0})


def test_update_validation(ray_session, tmp_path):
    srcs, out = _job(tmp_path, n=300)
    with pytest.raises(ValueError, match="non-empty"):
        update_rows(str(out), [], set_values={"lang": "xx"})
    with pytest.raises(ValueError, match="set_values and/or scrub"):
        update_rows(str(out), [("lang", "==", "de")])
    with pytest.raises(ValueError, match="not in partition .*encoded columns"):
        update_rows(str(out), [("lang", "==", "de")], set_values={"nope": 1})
    with pytest.raises(ValueError, match="regex, replacement"):
        update_rows(
            str(out), [("lang", "==", "de")], scrub={"body": [("only-one",)]}
        )
    with pytest.raises(ValueError, match="no job record"):
        update_rows(str(tmp_path / "nowhere"), [("lang", "==", "de")],
                    set_values={"lang": "xx"})
    # driver-side fail-fast: these would otherwise die INSIDE the actor
    # after some partitions already rewrote
    with pytest.raises(ValueError, match="JSON-recordable"):
        update_rows(str(out), [("lang", "==", "de")],
                    set_values={"lang": object()})
    with pytest.raises(ValueError, match="not castable"):
        update_rows(str(out), [("lang", "==", "de")],
                    set_values={"doc_id": "not-an-int"})
    with pytest.raises(ValueError, match="needs a string column"):
        update_rows(str(out), [("lang", "==", "de")],
                    scrub={"doc_id": [("1", "2")]})


def test_update_recomputes_enrichments_of_its_targets(ray_session, tmp_path):
    """Derived columns whose recorded input is a scrub target are
    recomputed in the same rewrite, never left stale."""
    import hashlib

    from rayenc import enrich_many, fsck_job

    srcs, out = _job(tmp_path, n=1400, files=1, max_partition_bytes=20_000)
    enrich_many(str(out), {"sha": "sha256_hex", "nc": "n_chars"}, input_column="body")
    s = update_rows(
        str(out),
        [("body", "contains", "@example.com")],
        scrub={"body": [(r"[\w.+-]+@[\w-]+\.[\w.]+", "[EMAIL-REDACTED]")]},
    )
    assert s["rows_updated"] > 0
    got = _decode_all(out)
    bodies = got["body"].to_pylist()
    assert sum("[EMAIL-REDACTED]" in b for b in bodies) == s["rows_updated"]
    assert got["nc"].to_pylist() == [len(b) for b in bodies]
    assert got["sha"].to_pylist() == [
        hashlib.sha256(b.encode()).hexdigest() for b in bodies
    ]
    assert fsck_job(str(out), deep=True)["ok"]


def test_cli_scrub_splits_at_first_unescaped_equals():
    from rayenc.__main__ import _parse_scrub

    assert _parse_scrub(["content:import =use "]) == {"content": [("import ", "use ")]}
    assert _parse_scrub(["body:key=x=y"]) == {"body": [("key", "x=y")]}
    assert _parse_scrub([r"body:a\=1=b", "body:c=d"]) == {
        "body": [(r"a\=1", "b"), ("c", "d")]
    }
    # RE2 reads the escaped '=' as a literal one
    import pyarrow.compute as pc

    assert pc.replace_substring_regex(
        pa.array(["a=1"]), pattern=r"a\=1", replacement="b"
    ).to_pylist() == ["b"]
    for bad in ["body", "body:noequals", "body:=x", ":a=b"]:
        with pytest.raises(SystemExit):
            _parse_scrub([bad])
