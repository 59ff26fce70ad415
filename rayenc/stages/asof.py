"""As-of join: each left row picks the nearest right row at-or-before
(backward) or at-or-after (forward) its timestamp, per key.

The operator the reference has no analog for (it has no joins at all —
SURVEY.md §2.5) but a training-data pipeline needs constantly: join an
event stream to the most recent model snapshot / price / config row.

Ray-Data-first shape (same pattern as dedup.anti_join_ids, sharing its
bucketing via hashing.key_buckets): both sides are tagged with
``hash(key) % n_buckets`` and a side marker, unioned under ONE PINNED
schema (each side null-padded to the union schema — schema-less empty
blocks are the round-3 flake class), shuffled with a single sort-based
groupby(bucket), and each bucket resolves its matches with pandas
``merge_asof`` (vectorized C merge over ts-sorted frames, ``by=`` key)
inside ``map_groups``. Only the (key, ts, row-index) triple ever
round-trips through pandas — match indices come back and every output
column is gathered with Arrow ``take``, so int64 ids never pass through
float64 and right value columns may be ANY arrow type (lists, structs,
binary), nullable or not. Nothing passes through the driver; skew is
bounded by the key-hash bucketing.

Partitioning assumption: one bucket's rows (both sides) fit one task —
true whenever any single join key's rows do (the same assumption every
keyed groupby in this repo makes); salt hot keys upstream if not.

Determinism: when several right rows share (key, ts), the LAST one in
bucket sort order wins — pre-aggregate the right side to unique
(key, ts) rows (as q_events_asof_join does) for a fully deterministic
result.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..dispatch import spare_cpus
from .hashing import arrow_schema_of, key_buckets

_SIDE, _BUCKET = "__asof_side", "__asof_b"


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    right_values: list[str],
    n_buckets: int | None = None,
    direction: str = "backward",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """Left as-of join. Output = every left row + ``right_values`` from
    its matched right row (null when no right row qualifies).

    ``left_key``/``right_key`` must be integer-typed (hash-bucketed) and
    non-null; ``left_ts``/``right_ts`` must share a comparable type
    (timestamp or numeric) and be non-null — nulls in any of the four
    raise at runtime with the offending side and column (merge keys
    cannot be null). ``right_values`` must not collide with left column
    names and may be any arrow type, nullable included.

    Pass ``left_schema``/``right_schema`` when a side's schema is not
    statically known to Ray (e.g. downstream of groupby/aggregate or
    map_batches): ``Dataset.schema()`` on such a side EXECUTES its
    upstream plan just to learn the schema, and the pipeline then
    re-executes for real — the whole side runs twice.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    if n_buckets is None:
        # scale shuffle width with the cluster, same default rule as
        # dedup.anti_join_ids; explicit n_buckets overrides (at real
        # scale pick ~(total rows / rows-per-task) buckets)
        n_buckets = spare_cpus(64)
    lschema = (
        left_schema if left_schema is not None else arrow_schema_of(left.schema())
    )
    rschema = (
        right_schema if right_schema is not None else arrow_schema_of(right.schema())
    )
    lnames = list(lschema.names)
    clash = {_SIDE, _BUCKET} & (set(lnames) | set(right_values))
    if clash:
        raise ValueError(f"asof_join reserved column names in input: {clash}")
    overlap = set(right_values) & set(lnames)
    if overlap:
        raise ValueError(f"right_values collide with left columns: {overlap}")
    for c in (right_key, right_ts, *right_values):
        if c not in rschema.names:
            raise ValueError(f"asof_join: column {c!r} not in right schema")
    for c in (left_key, left_ts):
        if c not in lnames:
            raise ValueError(f"asof_join: column {c!r} not in left schema")

    # pinned union schema: left cols + right value cols + side + bucket
    fields = list(lschema) + [
        pa.field(v, rschema.field(v).type) for v in right_values
    ]
    union_schema = (
        pa.schema(fields)
        .append(pa.field(_SIDE, pa.int8()))
        .append(pa.field(_BUCKET, pa.int32()))
    )

    def _require_non_null(col: pa.ChunkedArray | pa.Array, name: str, side: str):
        nc = col.null_count
        if nc:
            raise ValueError(
                f"asof_join: {side} merge column {name!r} has {nc} null(s); "
                "key and timestamp columns must be non-null"
            )

    def _pad(t: pa.Table, cols: dict, side: int, key_arr) -> pa.Table:
        n = t.num_rows
        out = {}
        for f in union_schema:
            if f.name == _SIDE:
                out[f.name] = pa.array(np.full(n, side, dtype=np.int8))
            elif f.name == _BUCKET:
                out[f.name] = key_buckets(key_arr, n_buckets)
            elif f.name in cols:
                col = cols[f.name]
                out[f.name] = (
                    col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                ).cast(f.type)
            else:
                out[f.name] = pa.nulls(n, type=f.type)
        return pa.table(out, schema=union_schema)

    def tag_left(t: pa.Table) -> pa.Table:
        _require_non_null(t[left_key], left_key, "left")
        _require_non_null(t[left_ts], left_ts, "left")
        return _pad(t, {c: t[c] for c in t.column_names}, 0, t[left_key])

    def tag_right(t: pa.Table) -> pa.Table:
        _require_non_null(t[right_key], right_key, "right")
        _require_non_null(t[right_ts], right_ts, "right")
        cols = {left_key: t[right_key], left_ts: t[right_ts]}
        cols.update({v: t[v] for v in right_values})
        return _pad(t, cols, 1, t[right_key])

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    import pandas as pd

    out_names = lnames + list(right_values)
    out_schema = pa.schema([union_schema.field(n) for n in out_names])
    key_ts = [left_key, left_ts]

    def join_bucket(t: pa.Table) -> pa.Table:
        side = t[_SIDE]
        lt = t.filter(pc.equal(side, 0)).combine_chunks()
        if not lt.num_rows:
            return out_schema.empty_table()
        rt = t.filter(pc.equal(side, 1)).combine_chunks()
        # only (key, ts, position) round-trips through pandas — both are
        # non-null by the tag-time check, so dtypes stay exact; every
        # output column is gathered from the arrow tables by index below
        match = np.full(lt.num_rows, -1, dtype=np.int64)
        if rt.num_rows:
            ldf = lt.select(key_ts).to_pandas()
            ldf["__li"] = np.arange(len(ldf), dtype=np.int64)
            rdf = rt.select(key_ts).to_pandas()
            rdf["__ri"] = np.arange(len(rdf), dtype=np.int64)
            merged = pd.merge_asof(
                ldf.sort_values(left_ts, kind="mergesort"),
                rdf.sort_values(left_ts, kind="mergesort"),
                on=left_ts,
                by=left_key,
                direction=direction,
                allow_exact_matches=True,
            )
            ri = merged["__ri"].to_numpy(dtype=np.float64, na_value=-1.0)
            match[merged["__li"].to_numpy()] = ri.astype(np.int64)
        take_idx = pa.array(match, type=pa.int64(), mask=match < 0)
        cols = {}
        for f in out_schema:
            if f.name in lnames:
                cols[f.name] = lt[f.name]
            else:
                cols[f.name] = pc.take(rt[f.name].combine_chunks(), take_idx)
        return pa.table(cols, schema=out_schema)

    return tagged.groupby(_BUCKET).map_groups(join_bucket, batch_format="pyarrow")


def interval_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    left_ts: str,
    right_start: str,
    right_end: str,
    right_values: list[str],
    n_buckets: int | None = None,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """Left validity-interval (range) join: each left row matches the
    right row of the same key whose ``[right_start, right_end)`` window
    contains ``left_ts``; rows in no window get nulls.

    Built on :func:`asof_join` (backward on ``right_start``) plus an
    expiry filter — exact when each key's windows DON'T OVERLAP (the
    validity-window case a training pipeline hits: config/model/price
    epochs). With overlapping windows only the latest-starting one can
    match (the asof candidate); a general all-pairs interval join would
    need a per-key interval index instead. ``right_end`` may be null
    (open-ended window).
    """
    end_col = "__ivl_end"
    if end_col in (set(right_values) | {left_key, left_ts}):
        raise ValueError(f"interval_join reserved column name in input: {end_col}")
    if right_schema is None:
        right_schema = arrow_schema_of(right.schema())
    if right_end not in right_schema.names:
        raise ValueError(f"interval_join: column {right_end!r} not in right schema")

    def add_end(t: pa.Table) -> pa.Table:
        return t.append_column(end_col, t[right_end])

    matched = asof_join(
        left,
        right.map_batches(add_end, batch_format="pyarrow"),
        left_key=left_key,
        right_key=right_key,
        left_ts=left_ts,
        right_ts=right_start,
        right_values=[*right_values, end_col],
        n_buckets=n_buckets,
        direction="backward",
        left_schema=left_schema,
        right_schema=right_schema.append(
            pa.field(end_col, right_schema.field(right_end).type)
        ),
    )

    def expire(t: pa.Table) -> pa.Table:
        # candidate matched on start <= ts; drop it when its window
        # closed before ts (end <= ts). Null end = open-ended = keep.
        end = t[end_col].combine_chunks()
        ts = t[left_ts].combine_chunks()
        if end.type != ts.type:
            try:  # compare in the finer type (date32 end -> timestamp ts)
                end = end.cast(ts.type)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                ts = ts.cast(end.type)
        alive = pc.fill_null(pc.greater(end, ts), True)
        cols = {}
        for f in t.schema:
            if f.name == end_col:
                continue
            if f.name in right_values:
                col = t[f.name].combine_chunks()
                cols[f.name] = pc.if_else(alive, col, pa.nulls(len(col), f.type))
            else:
                cols[f.name] = t[f.name]
        return pa.table(cols)

    return matched.map_batches(expire, batch_format="pyarrow")
