"""Shared stage dispatch (rayenc.dispatch): job partition stages and
decode_dataset run as Ray Data tasks on reused workers."""

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
