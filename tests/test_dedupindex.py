"""DedupIndex: incremental cross-run exact dedup via sharded claim
actors — first-wins exactly-once keys, persist/load, null collapse."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from rayenc.stages.dedupindex import DedupIndex, IndexShard


def _docs(ids, tag=""):
    return pa.table(
        {
            "doc_id": pa.array(list(range(len(ids))), type=pa.int64()),
            "content": pa.array([f"document body {i}" for i in ids]),
            "run": pa.array([tag] * len(ids)),
        }
    )


def test_index_shard_claim_semantics():
    s = IndexShard()
    hi = np.array([1, 2, 1, 3], dtype=np.uint64)
    lo = np.array([9, 9, 9, 9], dtype=np.uint64)
    m = s.claim(hi, lo)
    # within-call duplicate (1,9): only the first occurrence claims
    assert m.tolist() == [True, True, False, True]
    # cross-call: everything already claimed
    assert s.claim(hi, lo).tolist() == [False] * 4
    assert s.size() == 3


def test_index_shard_consolidation_keeps_membership(monkeypatch):
    import rayenc.stages.dedupindex as mod

    monkeypatch.setattr(mod, "CONSOLIDATE_AT", 8)
    s = IndexShard()
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(6):
        hi = rng.integers(0, 20, size=10).astype(np.uint64)
        lo = rng.integers(0, 2, size=10).astype(np.uint64)
        m = s.claim(hi, lo)
        for h, l, new in zip(hi, lo, m):
            key = (int(h), int(l))
            assert new == (key not in seen)
            seen.add(key)
    assert s.size() == len(seen)


def test_filter_new_within_and_across_runs(ray_session):
    idx = DedupIndex(n_shards=3)
    # day 1: 300 rows, 100 distinct contents
    day1 = _docs([i % 100 for i in range(300)], "d1")
    out1 = pa.concat_tables(
        idx.filter_new(rd.from_arrow(day1), "content", concurrency=2)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert out1.num_rows == 100
    assert sorted(set(out1["content"].to_pylist())) == sorted(
        set(day1["content"].to_pylist())
    )
    # day 2: 50 repeats of day 1 + 40 new
    day2 = _docs(list(range(50)) + list(range(100, 140)), "d2")
    out2 = pa.concat_tables(
        idx.filter_new(rd.from_arrow(day2), "content", concurrency=2)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert out2.num_rows == 40
    got = set(out2["content"].to_pylist())
    assert got == {f"document body {i}" for i in range(100, 140)}
    assert idx.size() == 140


def test_filter_new_null_keys_collapse(ray_session):
    idx = DedupIndex(n_shards=2)
    t = pa.table(
        {
            "k": pa.array([None, "a", None, "b", None], type=pa.string()),
            "v": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        }
    )
    out = pa.concat_tables(
        idx.filter_new(rd.from_arrow(t), "k", concurrency=1)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    # nulls hash to one fixed fingerprint -> one surviving null row
    assert out.num_rows == 3
    assert sum(1 for x in out["k"].to_pylist() if x is None) == 1


def test_persist_load_roundtrip(ray_session, tmp_path):
    idx = DedupIndex(n_shards=4)
    day1 = _docs(range(200), "d1")
    n1 = idx.filter_new(rd.from_arrow(day1), "content", concurrency=2).count()
    assert n1 == 200
    marker = idx.persist(str(tmp_path / "idx"))
    assert marker["keys"] == 200 and marker["n_shards"] == 4

    # a NEW driver session restores the index and keeps deduping
    idx2 = DedupIndex.load(str(tmp_path / "idx"))
    assert idx2.size() == 200
    day2 = _docs(list(range(150, 260)), "d2")  # 50 repeats + 60 new
    out = pa.concat_tables(
        idx2.filter_new(rd.from_arrow(day2), "content", concurrency=2)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert out.num_rows == 60
    assert set(out["content"].to_pylist()) == {
        f"document body {i}" for i in range(200, 260)
    }


def test_load_requires_marker(ray_session, tmp_path):
    with pytest.raises(FileNotFoundError, match="index.json"):
        DedupIndex.load(str(tmp_path / "missing"))


def test_dropped_index_ends_its_actors_after_filter_new(ray_session):
    """Once `filter_new` has run, dropping the index ends its shard
    actors: no task worker keeps their handles, so the CPU share each
    actor reserves comes back for later stages."""
    import gc
    import time

    from ray._private import state

    def run_and_drop() -> list[str]:
        idx = DedupIndex(n_shards=2)
        ds = idx.filter_new(rd.from_arrow(_docs(range(50))), "content", concurrency=2)
        assert sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow")) == 50
        return [s._actor_id.hex() for s in idx.shards]

    ids = run_and_drop()
    gc.collect()
    deadline = time.time() + 30
    while time.time() < deadline and any(state.actors(a)["State"] != "DEAD" for a in ids):
        time.sleep(0.5)
    assert [state.actors(a)["State"] for a in ids] == ["DEAD", "DEAD"]
