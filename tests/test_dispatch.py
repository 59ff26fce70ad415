"""Shared stage dispatch (rayenc.dispatch): every rayenc stage (the
encoder, the decoder, the job partition stages and the dataset stages)
runs as Ray Data tasks on reused workers."""

from __future__ import annotations

import warnings

import pyarrow as pa


def _actor_ids() -> set:
    """Every actor id the cluster has seen, in any state. Read from the
    GCS actor table: the state API (`ray.util.state.list_actors`) needs
    the dashboard, which the test session does not start. Dead actors
    count too, because a Ray Data map worker is dead by the time its
    dataset finishes."""
    from ray._private import state

    return set(state.actors())


# ---------------------------------------------------------------------------
# Partition stages (rayenc.jobs._map_partitions)
# ---------------------------------------------------------------------------


def test_map_partitions_one_stage_per_worker_per_call(ray_session):
    """Each task worker builds one stage per `_map_partitions` call and
    reuses it for every partition of that call it runs; a later call
    never reuses an earlier call's stage."""
    import os

    from rayenc.jobs import _map_partitions, _PartitionStage

    class WhoRan(_PartitionStage):
        def _run(self, item):
            return {"item": item, "pid": os.getpid(), "stage": id(self)}

    items = list(range(8))
    calls = [_map_partitions(WhoRan, items, 2) for _ in range(2)]
    stage_sets = []
    for rows in calls:
        assert sorted(r["item"] for r in rows) == items
        stages = {(r["pid"], r["stage"]) for r in rows}
        assert len(stages) == len({r["pid"] for r in rows})
        stage_sets.append(stages)
    assert not stage_sets[0] & stage_sets[1]


def test_explicit_concurrency_clamped_to_partition_count(ray_session, corpus_parquet,
                                                         tmp_path):
    """A one-partition op with a cap of 2 must not launch Ray Data's
    'operator only received 1 input(s)' warning: the cap is clamped."""
    from rayenc import delete_rows, run_encode_job

    out = str(tmp_path / "job")
    s = run_encode_job(corpus_parquet, out, block_rows=1000, concurrency=2)
    assert s["partitions_total"] == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = delete_rows(out, [("lang", "==", "go")], concurrency=(1, 2))
    assert d["partitions_total"] == 1 and d["rows_deleted"] > 0
    msgs = [str(w.message) for w in caught]
    assert not [m for m in msgs if "maximum number of concurrent tasks" in m], msgs


# ---------------------------------------------------------------------------
# Reads (rayenc.decode.decode_dataset)
# ---------------------------------------------------------------------------


def test_decode_starts_no_actor(ray_session, corpus_parquet, tmp_path):
    """A full and a filtered read of a job dir, and an ordered encode,
    start no actor: the decoder and the ordered encoder run as tasks.
    The first read only warms Ray Data's own actors (stats, autoscaling
    requester)."""
    from rayenc import decode_dataset, encode_dataset_ordered, run_encode_job
    from rayenc.encode import read_blocks

    out = str(tmp_path / "job")
    run_encode_job(corpus_parquet, out, block_rows=500, concurrency=2)
    blocks = out + "/blocks"
    assert decode_dataset(read_blocks(blocks)).materialize().count() == 3000
    before = _actor_ids()
    full = decode_dataset(read_blocks(blocks)).materialize()
    some = decode_dataset(read_blocks(blocks), columns=["repo", "path"],
                          filter=[("lang", "==", "go")]).materialize()
    assert full.count() == 3000
    assert 0 < some.count() < 3000
    assert some.schema().names == ["repo", "path"]
    ordered = encode_dataset_ordered(corpus_parquet, block_rows=500, concurrency=2)
    assert ordered.sum("n_rows") == 3000
    assert _actor_ids() == before


def test_stages_start_no_actor_but_index_shards(ray_session, corpus_parquet, tmp_path):
    """The encode front door (lazy, default concurrency, chained into a
    read), the MinHash, SimHash, language-id, media-decode and histogram
    stages start no actor: they run as tasks. `DedupIndex.filter_new`
    starts only the index's own `IndexShard` actors."""
    import ray.data as rd
    from ray._private import state

    from rayenc import decode_dataset, encode_dataset
    from rayenc.histograms import gen_histograms, read_histograms, write_histogram_json
    from rayenc.stages import multimodal
    from rayenc.stages.dedup import minhash_candidate_pairs, simhash_pairs
    from rayenc.stages.dedupindex import DedupIndex
    from rayenc.stages.text import langid_dataset

    docs = pa.table({
        "doc_id": pa.array(range(6), type=pa.int64()),
        "text": ["the quick brown fox jumps over the lazy dog"] * 2
        + ["der schnelle braune fuchs springt", "le renard brun rapide saute",
           "a b c", ""],
    })
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"m{i}.json"))
        write_histogram_json(paths[-1], gen_histograms(n_series=5, seed=i, metric=f"m{i}"))
    rd.range(8).materialize()  # starts Ray Data's own actors (stats, autoscaling)
    before = _actor_ids()
    enc = encode_dataset(rd.read_parquet(corpus_parquet), block_rows=500)
    assert decode_dataset(enc).materialize().count() == 3000
    minhash_candidate_pairs(rd.from_arrow(docs), threshold=0.3, n_bands=32).materialize()
    simhash_pairs(rd.from_arrow(docs), max_hamming=3).materialize()
    assert langid_dataset(rd.from_arrow(docs)).materialize().count() == 6
    media = multimodal.synthesize_media_table(16)
    assert multimodal.decode_pipeline(rd.from_arrow(media)).materialize().count() == 16
    assert read_histograms(paths).materialize().count() == 10
    assert _actor_ids() == before
    idx = DedupIndex(n_shards=2)
    assert idx.filter_new(rd.from_arrow(docs), "text").materialize().count() == 5
    started = _actor_ids() - before
    assert len(started) == 2
    assert {state.actors(a)["ActorClassName"] for a in started} == {"IndexShard"}
    for shard in idx.shards:  # each holds a share of a CPU that later tests count on
        ray_session.kill(shard)


def test_chained_decode_keeps_each_workers_encoder(ray_session, tmp_path, monkeypatch):
    """A read chained lazily after `encode_dataset` leaves each worker's
    `BlockEncoder`, and so its codec cache, in the stage slot: each
    worker builds one encoder, so no block re-trials after its worker's
    first. With a one-entry slot the two stages evict each other and a
    worker rebuilds its encoder, and re-trials, on most blocks."""
    import os
    import uuid

    import ray.data as rd

    from rayenc import encode as encode_mod
    from rayenc.corpus import gen_corpus
    from rayenc.decode import decode_dataset

    marks = str(tmp_path)

    class CountedEncoder(encode_mod.BlockEncoder):
        def __init__(self, **kw):
            super().__init__(**kw)
            open(f"{marks}/{os.getpid()}-{uuid.uuid4().hex}", "w").close()

    monkeypatch.setattr(encode_mod, "BlockEncoder", CountedEncoder)
    t = gen_corpus(5000, seed=3)
    src = rd.from_arrow([t.slice(i, 250) for i in range(0, 5000, 250)])
    blocks = encode_mod.encode_dataset(src, block_rows=250, concurrency=2)
    assert decode_dataset(blocks).materialize().count() == 5000
    builds = os.listdir(marks)
    assert len(builds) == len({b.split("-")[0] for b in builds}), sorted(builds)


def test_default_decode_concurrency_fits_one_block(ray_session):
    """With no `concurrency`, a read of a one-block table sets no task
    cap, so Ray Data raises no 'only received 1 input(s)' warning."""
    import ray.data as rd

    from rayenc.decode import decode_dataset
    from rayenc.encode import BlockEncoder

    t = pa.table({"k": pa.array(range(100)),
                  "v": pa.array([f"row {i}" for i in range(100)])})
    blocks = rd.from_arrow(BlockEncoder().encode_table(t))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = decode_dataset(blocks, filter=[("k", ">=", 90)]).to_pandas()
    assert len(got) == 10
    msgs = [str(w.message) for w in caught]
    assert not [m for m in msgs if "maximum number of concurrent tasks" in m], msgs


# ---------------------------------------------------------------------------
# CPU shares and the per-worker thread pool
# ---------------------------------------------------------------------------


def test_partition_tasks_start_together(ray_session, tmp_path):
    """Every partition task of one call starts before the first one
    ends (Ray Data's default output budget admitted one task at a time
    until one had finished), and each task's pool is as wide as the
    CPUs it reserved: concurrency 4 over 4 CPUs gives 1 each, a single
    task holds every CPU."""
    import json
    import time

    from rayenc.jobs import _map_partitions, _PartitionStage

    class Stamp(_PartitionStage):
        def __init__(self, out_dir: str, nap: float):
            self.out_dir, self.nap = out_dir, nap

        def _run(self, item):
            from rayenc.dispatch import pool_width

            t0 = time.time()
            time.sleep(self.nap)  # longer than a worker start
            stamp = {"start": t0, "end": time.time(), "width": pool_width()}
            with open(f"{self.out_dir}/{item}.json", "w") as f:
                json.dump(stamp, f)
            return {"item": item}

    rows = _map_partitions(Stamp, list(range(4)), 4, out_dir=str(tmp_path), nap=5.0)
    assert sorted(r["item"] for r in rows) == [0, 1, 2, 3]
    stamps = [json.loads((tmp_path / f"{i}.json").read_text()) for i in range(4)]
    first_end = min(s["end"] for s in stamps)
    assert all(s["start"] < first_end for s in stamps), stamps
    assert {s["width"] for s in stamps} == {1}
    _map_partitions(Stamp, [9], 1, out_dir=str(tmp_path), nap=0.0)
    assert json.loads((tmp_path / "9.json").read_text())["width"] == 4


def test_cpu_share_rule():
    """Each of `tasks` tasks reserves an even share of the cluster's
    CPUs, at least one, and never more than the largest node has."""
    from rayenc.dispatch import cpu_share

    assert cpu_share(2, 4, 4) == 2  # default cap at 4 CPUs: 2 tasks x 2
    assert cpu_share(1, 4, 4) == 4  # concurrency=1: one task, every CPU
    assert cpu_share(4, 4, 4) == 1
    assert cpu_share(3, 4, 4) == 1  # the remainder stays free
    assert cpu_share(30, 32, 32) == 1
    assert cpu_share(6, 4, 4) == 1  # never below one CPU
    assert cpu_share(1, 64, 16) == 16  # a 64-CPU cluster of 16-CPU nodes
    assert cpu_share(2, 48, 8) == 8


def test_stage_slot_keeps_the_two_latest_calls(monkeypatch):
    """Two calls whose batches alternate keep their stages; a third call
    evicts the least recently used one, which is built anew if it comes
    back."""
    from rayenc import dispatch

    monkeypatch.setattr(dispatch, "_STAGE_SLOT", {})
    built = []

    class Stage:
        def __init__(self, name: str):
            built.append(name)

    for token in ["a", "b", "a", "b", "a", "c", "a", "b"]:
        dispatch.slot_stage(Stage, {"name": token}, token)
    assert built == ["a", "b", "c", "b"]
    assert list(dispatch._STAGE_SLOT) == ["a", "b"]


def test_cpu_probes(ray_session, monkeypatch):
    """`spare_cpus` is two fewer than the cluster's CPUs, at least 2 and
    at most its limit; `local_ray_cpus` reads RAY_GRAFT_CPUS, else the
    CPUs this process may run on."""
    import os

    from rayenc import dispatch

    assert dispatch.cluster_cpus() == 4
    assert dispatch.spare_cpus() == 2 and dispatch.spare_cpus(64) == 2
    monkeypatch.setattr(dispatch, "cluster_cpus", lambda: 40)
    assert (dispatch.spare_cpus(), dispatch.spare_cpus(32), dispatch.spare_cpus(1)) == (38, 32, 2)
    monkeypatch.delenv("RAY_GRAFT_CPUS", raising=False)
    assert dispatch.local_ray_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("RAY_GRAFT_CPUS", "3")
    assert dispatch.local_ray_cpus() == 3


def test_pool_width_outside_a_task_is_one(ray_session):
    """The driver (and so every test) keeps the serial path."""
    from rayenc.dispatch import pool_width

    assert pool_width() == 1


def test_fan_out_order_errors_and_no_nested_submission(monkeypatch):
    """Results come back in item order; the first failing item's error
    is raised; work that fans out again from inside a fan-out runs
    serially, submitting nothing to the pool; the pool's threads are
    daemons, reused across calls."""
    import threading
    import time

    from rayenc import dispatch

    monkeypatch.setattr(dispatch, "pool_width", lambda: 4)
    submits = []
    real_submit = dispatch._pool_submit

    def spy(fn, n):
        submits.append(n)
        return real_submit(fn, n)

    monkeypatch.setattr(dispatch, "_pool_submit", spy)
    names = set()

    def inner(x):
        names.add(threading.current_thread().name)
        time.sleep(0.05)  # long enough for the pool threads to take items
        return dispatch.fan_out(lambda y: x * 10 + y, range(3))

    assert dispatch.fan_out(inner, range(8)) == [[x * 10 + y for y in range(3)]
                                                 for x in range(8)]
    assert submits == [3]  # the outer call only
    assert any(n.startswith("rayenc-pool-") for n in names)
    threads = list(dispatch._POOL_THREADS)
    assert threads and all(t.daemon for t in threads)

    def boom(x):
        if x in (5, 7):
            raise KeyError(x)
        return x

    try:
        dispatch.fan_out(boom, range(10))
    except KeyError as e:
        assert e.args == (5,)
    else:
        raise AssertionError("fan_out swallowed an item's error")
    assert dispatch._POOL_THREADS == threads


def test_fan_out_stress_runs_each_item_once(monkeypatch):
    """More threads than cores, a tiny switch interval: every item runs
    exactly once and lands in its own slot."""
    import sys
    import threading

    from rayenc import dispatch

    monkeypatch.setattr(dispatch, "pool_width", lambda: 8)
    runs = [0] * 3000
    lock = threading.Lock()

    def fn(i):
        with lock:
            runs[i] += 1
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        box = {}
        th = threading.Thread(target=lambda: box.setdefault(
            "out", dispatch.fan_out(fn, range(len(runs)))), daemon=True)
        th.start()
        th.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not th.is_alive()
    assert box["out"] == [i * i for i in range(len(runs))]
    assert runs == [1] * len(runs)


# ---------------------------------------------------------------------------
# Distributed fold (rayenc.dispatch.fold)
# ---------------------------------------------------------------------------


def _driver_partials(monkeypatch) -> list:
    """The partials the driver's own merge receives. Merge tasks run in
    workers, which import an unpatched `rayenc.dispatch`."""
    import pickle

    from rayenc import dispatch

    seen: list = []
    real = dispatch._merge_tables

    def spy(tables, merge):
        seen.extend(pickle.loads(p) for t in tables for p in t["p"].to_pylist())
        return real(tables, merge)

    monkeypatch.setattr(dispatch, "_merge_tables", spy)
    return seen


def test_fold_of_nothing_is_none(ray_session):
    """An empty dataset, and one whose every partial is None, fold to
    None."""
    import ray.data as rd

    from rayenc.dispatch import fold

    def add(a, b):
        return a + b

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    assert fold(empty, lambda b: 1, add) is None
    sliced = rd.range(50, override_num_blocks=5).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow")
    assert fold(sliced, lambda b: 1, add) is None
    assert fold(rd.range(100, override_num_blocks=10), lambda b: None, add) is None


def test_fold_merges_in_tasks_and_at_most_fan_in_on_the_driver(ray_session, monkeypatch):
    """300 batches: every batch's partial is merged exactly once, in exact
    Python ints, and the driver merges at most FOLD_FAN_IN partials."""
    import ray.data as rd

    from rayenc.dispatch import FOLD_FAN_IN, fold

    seen = _driver_partials(monkeypatch)
    big = 1 << 62  # the sum leaves int64
    ds = rd.from_arrow([pa.table({"x": pa.array([big + i] * 10, pa.int64())})
                        for i in range(300)])
    got = fold(ds, lambda b: (sum(b["x"].to_pylist()), 1),
               lambda a, b: (a[0] + b[0], a[1] + b[1]))
    assert got == (sum(10 * (big + i) for i in range(300)), 300)
    assert 1 <= len(seen) <= FOLD_FAN_IN


def test_grouped_agg_lowcard_driver_partials_are_o_keys(ray_session, monkeypatch):
    """300 batches x 3 keys (one of them NULL) equal a whole-input pandas
    groupby, and the driver merges at most FOLD_FAN_IN partial frames of
    at most one row per key."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from rayenc.dispatch import FOLD_FAN_IN
    from rayenc.stages.agg import grouped_agg_lowcard

    rng = np.random.default_rng(0)
    tables = []
    for i in range(300):
        v = rng.integers(0, 1000, 20).tolist()
        if i % 7 == 0:
            v[:5] = [None] * 5
        tables.append(pa.table({"k": pa.array(rng.choice(np.array(["a", "b", None]), 20)),
                                "v": pa.array(v, pa.int64())}))
    seen = _driver_partials(monkeypatch)
    out = grouped_agg_lowcard(
        rd.from_arrow(tables), ["k"],
        {"n": (None, "count"), "s": ("v", "sum"), "lo": ("v", "min"), "hi": ("v", "max")},
    )
    g = pa.concat_tables(tables).to_pandas().groupby("k", sort=True, dropna=False)
    want = pd.DataFrame({"n": g.size(), "s": g["v"].sum(min_count=1),
                         "lo": g["v"].min(), "hi": g["v"].max()}).reset_index()
    pd.testing.assert_frame_equal(out, want, check_dtype=False)
    assert 1 <= len(seen) <= FOLD_FAN_IN
    assert all(isinstance(f, pd.DataFrame) and len(f) <= 3 for f in seen)
