"""One Ray Data task dispatch for every rayenc stage.

A stage is a class whose instance turns one Arrow batch into one Arrow
batch (`BlockEncoder`, `BlockDecoder`, the job partition stages, the
dedup, language-id, multimodal, histogram, ANN and decontamination
stages). `map_stage` runs it as Ray Data tasks, not as an actor pool:
task workers outlive the call, so a later operation finds rayenc,
pyarrow and numpy already imported, and an idle task holds no CPU. Each
worker keeps the stages of the operations it last served in a small
dict keyed by a per-call token, so a stage is built once per worker per
call and reused for every later batch of that call (an encoder's codec
cache carries across them). It holds two, so the two stages of a lazy
encode -> decode chain keep theirs while their batches alternate.

A task may hold more than one CPU (the job partition stages reserve
the cluster's CPUs their task cap leaves idle). It spends them through
`fan_out`, on one long-lived pool of daemon threads per worker process:
threads, not more worker processes, because each worker that has run a
rayenc task holds a few hundred MB of imports, and one pool reused by
every call, because a pool built per call leaves glibc malloc arenas
behind in every worker that grow its memory by hundreds of MB.

Every mergeable aggregate (zone aggregates, sketches, the key Bloom,
low-cardinality group-by, row-number bases) reduces through `fold`: one
partial per batch in Ray Data tasks, merged in tasks `FOLD_FAN_IN` at a
time until the driver has at most `FOLD_FAN_IN` left to merge.
"""

from __future__ import annotations

import functools
import os
import pickle
import queue
import secrets
import threading
from concurrent.futures import Future

import pyarrow as pa

# The stages of the operations this worker process served last:
# op token -> stage object, least recently used first. A new operation's
# stage evicts the least recently used one past `_STAGE_SLOTS`.
_STAGE_SLOTS = 2
_STAGE_SLOT: dict = {}


# The worker's pool threads and the queue they take work from. Daemon
# threads: a pool thread must never keep a worker process alive after
# its driver and raylet are gone.
_POOL_THREADS: list[threading.Thread] = []
_POOL_JOBS: queue.SimpleQueue = queue.SimpleQueue()
_POOL_LOCK = threading.Lock()
# .busy: this thread is running `fan_out` work, so a fan-out it makes
# runs serially (no pool thread ever waits on the pool)
_LOCAL = threading.local()


def pool_width() -> int:
    """Threads a `fan_out` may use: the CPUs Ray assigned to the running
    task or actor, and 1 outside one (the driver, tests)."""
    try:
        import ray
        from ray._private.worker import WORKER_MODE, global_worker

        # checked first: a runtime-context call would start Ray
        if not ray.is_initialized() or global_worker.mode != WORKER_MODE:
            return 1
        return max(1, int(ray.get_runtime_context().get_assigned_resources().get("CPU", 1)))
    except Exception:
        return 1


def _pool_loop() -> None:
    while True:
        fn, fut = _POOL_JOBS.get()
        if fut.set_running_or_notify_cancel():
            try:
                fut.set_result(fn())
            except BaseException as e:
                fut.set_exception(e)


def _pool_submit(fn, n: int) -> list[Future]:
    """Run `fn` on `n` pool threads at once, growing the pool to `n`."""
    with _POOL_LOCK:
        while len(_POOL_THREADS) < n:
            t = threading.Thread(target=_pool_loop, daemon=True,
                                 name=f"rayenc-pool-{len(_POOL_THREADS)}")
            t.start()
            _POOL_THREADS.append(t)
    futs = [Future() for _ in range(n)]
    for f in futs:
        _POOL_JOBS.put((fn, f))
    return futs


def fan_out(fn, items) -> list:
    """`[fn(x) for x in items]` on up to `pool_width()` threads: the
    calling thread and the worker's pool threads take items in order,
    and the results come back in item order. A call from inside fan-out
    work runs serially. When items fail, the first failing item's
    exception is raised, as the serial loop would raise it."""
    items = list(items)
    width = 1 if getattr(_LOCAL, "busy", False) else min(len(items), pool_width())
    if width <= 1:
        return [fn(x) for x in items]
    out: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    feed = iter(range(len(items)))
    lock = threading.Lock()

    def drain() -> None:
        _LOCAL.busy = True
        try:
            while True:
                with lock:
                    i = None if errors else next(feed, None)
                if i is None:
                    return
                try:
                    out[i] = fn(items[i])
                except BaseException as e:
                    with lock:
                        errors[i] = e
        finally:
            _LOCAL.busy = False

    futs = _pool_submit(drain, width - 1)
    drain()
    for f in futs:
        f.result()
    if errors:
        raise errors[min(errors)]
    return out


def local_ray_cpus() -> int:
    """Logical CPUs for a local Ray that a rayenc entry point starts:
    `RAY_GRAFT_CPUS`, else the CPUs this process may run on."""
    return int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))


def cluster_cpus(default: int = 8) -> int:
    """Cluster CPU count, or `default` when Ray cannot say."""
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def spare_cpus(limit: int | None = None) -> int:
    """Two fewer than the cluster's CPUs, at least 2 and at most `limit`:
    the default task cap of the job stages and the default bucket or
    partition count of the shuffle stages."""
    spare = cluster_cpus() - 2
    return max(2, spare if limit is None else min(limit, spare))


def largest_node_cpus() -> int:
    """CPU count of the largest live node: the most one task can hold."""
    import ray

    return int(max((n["Resources"].get("CPU", 0) for n in ray.nodes() if n["Alive"]),
                   default=1))


def cpu_share(tasks: int, cpus: int, node_cpus: int) -> int:
    """CPUs each of `tasks` concurrent tasks reserves: an even share of
    the cluster's `cpus`, at least 1, and never more than the largest
    node has (a larger request could never be scheduled)."""
    return max(1, min(cpus // max(1, tasks), node_cpus))


def slot_stage(stage_class: type, ctor_kwargs: dict, op_token: str):
    """The operation's stage in this worker: built on the operation's
    first batch here, reused for every later one, so the stage's setup
    (and an encoder's codec cache) carries across batches."""
    stage = _STAGE_SLOT.pop(op_token, None)
    if stage is None:
        # built before an old stage is dropped, so a new stage never
        # reuses an earlier operation's object id
        stage = stage_class(**ctor_kwargs)
        while len(_STAGE_SLOT) >= _STAGE_SLOTS:
            del _STAGE_SLOT[next(iter(_STAGE_SLOT))]
    _STAGE_SLOT[op_token] = stage
    return stage


def run_stage(batch, stage_class: type, ctor_kwargs: dict, op_token: str):
    """Default Ray Data task body of `map_stage`."""
    return slot_stage(stage_class, ctor_kwargs, op_token)(batch)


def task_cap(concurrency: int | tuple[int, int] | None) -> int | None:
    """Most tasks in flight: an int as given, a (min, max) pair its
    upper bound, None no cap (Ray Data sizes it)."""
    if isinstance(concurrency, tuple):
        return int(concurrency[1])
    return None if concurrency is None else int(concurrency)


def map_stage(ds, stage_class: type, ctor_kwargs: dict | None = None,
              concurrency: int | tuple[int, int] | None = None,
              task=run_stage, task_kwargs: dict | None = None, **map_kwargs):
    """`ds.map_batches` of `stage_class(**ctor_kwargs)` as Ray Data tasks
    over pyarrow batches. `task` is the task body; it receives the batch,
    `stage_class`, `ctor_kwargs`, the call's `op_token` and
    `task_kwargs`, and gets the stage from `slot_stage`."""
    cap = task_cap(concurrency)
    if cap is not None:
        map_kwargs["concurrency"] = cap
    return ds.map_batches(
        task,
        fn_kwargs={"stage_class": stage_class, "ctor_kwargs": ctor_kwargs or {},
                   "op_token": secrets.token_hex(16), **(task_kwargs or {})},
        batch_format="pyarrow",
        **map_kwargs,
    )


# Most partials one merge step takes: a merge task's inputs, and what
# the driver merges at the end.
FOLD_FAN_IN = 32
# A fold's partials travel as pickles in a one-column table, so every
# partial and merge task emits this one schema.
_FOLD_SCHEMA = pa.schema([("p", pa.large_binary())])


def _fold_table(acc) -> pa.Table:
    """One pickled partial as a fold table; zero rows for None."""
    rows = [] if acc is None else [pickle.dumps(acc, pickle.HIGHEST_PROTOCOL)]
    return pa.table([pa.array(rows, pa.large_binary())], schema=_FOLD_SCHEMA)


def merge_all(parts, merge):
    """Fold the non-None partials with `merge`, in order, as they come;
    None when there are none."""
    acc = None
    for p in parts:
        if p is not None:
            acc = p if acc is None else merge(acc, p)
    return acc


def _merge_tables(tables, merge):
    return merge_all((pickle.loads(p) for t in tables for p in t["p"].to_pylist()), merge)


def _merge_task(merge, *tables: pa.Table) -> pa.Table:
    return _fold_table(_merge_tables(tables, merge))


@functools.cache
def _remote_merge():
    import ray

    return ray.remote(_merge_task)


def fold(ds: "ray.data.Dataset", part, merge):
    """Reduce `ds` to one value: `part(batch)` turns each pyarrow batch
    into a partial (None: the batch contributes nothing) inside Ray Data
    tasks, and the associative `merge(a, b)` combines two partials. The
    partial pass is one Ray Data execution. While more than
    `FOLD_FAN_IN` partials remain, tasks merge them `FOLD_FAN_IN` at a
    time, each round chained on the last without waiting for it, so the
    driver merges at most `FOLD_FAN_IN`: never one per batch. None when
    no batch contributed (or `ds` is empty)."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        return _fold_table(part(batch) if batch.num_rows else None)

    level = [  # (block ref, partials it holds)
        (ref, meta.num_rows)
        for bundle in ds.map_batches(partial, batch_format="pyarrow").iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    while sum(n for _, n in level) > FOLD_FAN_IN:
        level = [(_remote_merge().remote(merge, *(ref for ref, _ in level[i:i + FOLD_FAN_IN])), 1)
                 for i in range(0, len(level), FOLD_FAN_IN)]
    return _merge_tables(ray.get([ref for ref, _ in level]), merge)
