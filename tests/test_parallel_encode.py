"""The write path on a task's thread pool gives the serial path's bytes.

A partition task that holds more than one CPU encodes the blocks
between two codec trials concurrently, re-encodes DML candidate blocks
concurrently and runs a trial's candidates concurrently
(`rayenc.dispatch.fan_out`). Every test here compares that against the
serial path, pool width 1: same blocks, same codec choices, same block
order, same lineage apart from the measured timings."""

from __future__ import annotations

import glob
import json
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TIMINGS = ("ms", "enc_mbps")


def _lineage(s: str) -> dict:
    lin = json.loads(s)
    for info in lin.values():
        for k in TIMINGS:
            info.pop(k, None)
    return lin


def _assert_same_blocks(a: pa.Table, b: pa.Table) -> None:
    assert a.column_names == b.column_names
    for c in a.column_names:
        if c != "lineage":
            assert a[c].equals(b[c]), c
    assert ([_lineage(x) for x in a["lineage"].to_pylist()]
            == [_lineage(x) for x in b["lineage"].to_pylist()])


def _job_blocks(job: str) -> pa.Table:
    files = sorted(glob.glob(f"{job}/blocks/*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files]).sort_by(
        [("partition_id", "ascending"), ("block_seq", "ascending")])


def _width(monkeypatch, n: int) -> None:
    from rayenc import dispatch, jobs

    monkeypatch.setattr(dispatch, "pool_width", lambda: n)
    monkeypatch.setattr(jobs, "pool_width", lambda: n)


def _drifting_table() -> pa.Table:
    """3,000 corpus rows plus an int column that goes negative in one
    block (rows 1,550-1,559)."""
    from rayenc.corpus import gen_corpus

    t = gen_corpus(3000, seed=7)
    n = np.arange(t.num_rows) % 50
    n[1550:1560] = -3
    return t.append_column("n", pa.array(n, pa.int64()))


def test_encode_blocks_same_bytes_at_every_width(monkeypatch):
    """30 blocks of one partition (a retrial every 16 blocks), with the
    int column's cached bitpack failing on block 15: the failed block
    falls back to plain, the next block re-trials, and the width-4 pool
    gives the serial bytes. foref is left out of the int candidates,
    because it ties bitpack on non-negative ints and wins the tie."""
    from rayenc import selector
    from rayenc.encode import BlockEncoder
    from rayenc.jobs import _encode_blocks

    cands = selector.candidate_codecs
    monkeypatch.setattr(selector, "candidate_codecs",
                        lambda *a, **k: [c for c in cands(*a, **k) if c != "foref"])
    t = _drifting_table()
    out = {}
    for width in (1, 4):
        _width(monkeypatch, width)
        out[width] = _encode_blocks(BlockEncoder(), [t.slice(0, 1000), t.slice(1000)],
                                    100, 1 << 26, "p", 0)
    _assert_same_blocks(out[1], out[4])
    reasons = [_lineage(x)["n"]["reason"] for x in out[4]["lineage"].to_pylist()]
    codecs = [_lineage(x)["n"]["codec"] for x in out[4]["lineage"].to_pylist()]
    assert len(reasons) == 30
    assert reasons[15] == "cached bitpack failed; re-trial next block"
    assert codecs[15] == "plain"
    assert reasons[16].startswith("min trial payload")
    assert reasons[1:15] == ["cached selection"] * 14
    assert reasons[17:] == ["cached selection"] * 13


def test_select_codec_in_a_pool_thread_runs_serially(monkeypatch):
    """select_codec fans its trials out only from the task's thread:
    called from pool threads it runs them itself, submits nothing more
    to the pool, finishes, and picks what the serial call picks."""
    from rayenc import dispatch
    from rayenc.corpus import gen_corpus
    from rayenc.selector import select_codec

    t = gen_corpus(2000, seed=3)
    cols = [t[c] for c in t.column_names]
    serial = [select_codec(a).codec for a in cols]
    monkeypatch.setattr(dispatch, "pool_width", lambda: 4)
    submits = []
    real_submit = dispatch._pool_submit
    monkeypatch.setattr(dispatch, "_pool_submit",
                        lambda fn, n: submits.append(n) or real_submit(fn, n))
    box = {}
    th = threading.Thread(
        target=lambda: box.setdefault("out", dispatch.fan_out(
            lambda a: select_codec(a).codec, cols)),
        daemon=True)
    th.start()
    th.join(120)
    assert not th.is_alive(), "select_codec inside the pool never finished"
    assert box["out"] == serial
    assert submits == [3]
    # from the task's own thread the trials do fan out
    submits.clear()
    assert select_codec(t["content"]).codec == serial[t.column_names.index("content")]
    assert submits == [3]


def _in_process(stage_class, items, concurrency, **ctor):
    """`jobs._map_partitions` run serially on the driver by one stage,
    in plan order: the serial path of a one-worker run."""
    stage = stage_class(**ctor)
    return [stage._run(json.loads(json.dumps(x))) for x in items]


def _lifecycle(src: str, job: str) -> list[pa.Table]:
    """Encode (30 blocks, one partition), update, delete and compact one
    job dir at concurrency 1; the blocks after each step."""
    from rayenc import compact_job, delete_rows, run_encode_job, update_rows

    steps = [
        lambda: run_encode_job(src, job, block_rows=100, concurrency=1),
        lambda: update_rows(job, [("lang", "==", "go")],
                            scrub={"content": [(r"[0-9]+", "N")]}, concurrency=1),
        lambda: delete_rows(job, [("lang", "==", "rust")], concurrency=1),
        lambda: compact_job(job, 250, concurrency=1),
    ]
    out = []
    for step in steps:
        step()
        out.append(_job_blocks(job))
    return out


def test_job_lifecycle_same_bytes_in_a_wide_task(ray_session, tmp_path, monkeypatch):
    """run_encode_job, update_rows, delete_rows and compact_job at
    concurrency 1 run one Ray task holding every CPU (pool width 4).
    Their blocks after each step equal the same steps run serially on
    the driver at pool width 1, and at a monkeypatched width 4 there."""
    from rayenc import jobs

    src = str(tmp_path / "src.parquet")
    pq.write_table(_drifting_table(), src, row_group_size=1000)
    wide = _lifecycle(src, str(tmp_path / "ray"))
    assert len(wide[0]) == len(wide[1]) == 30 and len(wide[3]) < len(wide[2])
    monkeypatch.setattr(jobs, "_map_partitions", _in_process)
    for width in (1, 4):
        _width(monkeypatch, width)
        driver = _lifecycle(src, str(tmp_path / f"driver{width}"))
        for a, b in zip(driver, wide):
            _assert_same_blocks(a, b)
