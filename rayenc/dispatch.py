"""One Ray Data task dispatch for every rayenc stage.

A stage is a class whose instance turns one Arrow batch into one Arrow
batch (the job partition stages, `BlockDecoder`, the ANN and
decontamination scorers). `map_stage` runs it as Ray Data tasks, not as
an actor pool: task workers outlive the call, so a later operation finds
rayenc, pyarrow and numpy already imported, and an idle task holds no
CPU. Each worker keeps the stage of the operation it last served in a
one-slot dict keyed by a per-call token, so the stage is built once per
worker per call and reused for every later batch of that call. Two
dispatched stages chained in one pipeline would evict each other's
slot and rebuild per batch; no rayenc pipeline chains two.
"""

from __future__ import annotations

import secrets

# The stage of the operation this worker process last served:
# op token -> stage object. One slot, so a new operation's token evicts
# the previous operation's stage.
_STAGE_SLOT: dict = {}


def slot_stage(stage_class: type, ctor_kwargs: dict, op_token: str):
    """The operation's stage in this worker: built on the operation's
    first batch here, reused for every later one, so the stage's setup
    (and an encoder's codec cache) carries across batches."""
    stage = _STAGE_SLOT.get(op_token)
    if stage is None:
        # built before the old stage is dropped, so a new stage never
        # reuses the previous operation's object id
        stage = stage_class(**ctor_kwargs)
        _STAGE_SLOT.clear()
        _STAGE_SLOT[op_token] = stage
    return stage


def run_stage(batch, stage_class: type, ctor_kwargs: dict, op_token: str):
    """Default Ray Data task body of `map_stage`."""
    return slot_stage(stage_class, ctor_kwargs, op_token)(batch)


def task_cap(concurrency: int | tuple[int, int] | None) -> int | None:
    """Most tasks in flight: an int as given, a (min, max) pair (the
    actor-pool form) its upper bound, None no cap."""
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
