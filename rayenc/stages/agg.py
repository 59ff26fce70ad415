"""Pre-aggregated grouped aggregation for LOW-CARDINALITY keys.

The scale pattern from the Ray guide: a bare groupby shuffles every row;
when the group count is small (lang: ~10, returnflag: 3), compute
partials per batch inside Ray Data tasks (one row per key per batch) and
combine them through `dispatch.fold` — zero shuffle, merge tasks combine
the partial frames FOLD_FAN_IN at a time, and the driver merges at most
FOLD_FAN_IN frames of one row per key. For high-cardinality keys
(exact-dedup hashes) use the real groupby instead (see
dedup.dedup_exact).

ops: count, sum, min, max  (all partial-combinable; distinct counts are
done by first partial-aggregating the (key, value) pair space).
"""

from __future__ import annotations

import pandas as pd

import ray.data

from ..dispatch import fold

_COMBINE = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _agg(g, src: str | None, op: str) -> pd.Series:
    """One aggregate over a pandas groupby. dropna=False groupbys keep
    SQL's NULL-key group; `sum` follows SQL: NULL over an all-NULL group
    (pandas sum() defaults to 0 on empty/all-NaN)."""
    if op == "count":
        return g.size()  # COUNT(*): rows, null aggregands included
    if op == "sum":
        return g[src].sum(min_count=1)
    return getattr(g[src], op)()


def grouped_agg_lowcard(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: dict[str, tuple[str | None, str]],
) -> pd.DataFrame:
    """aggs: out_col -> (src_col, op) with op in count|sum|min|max;
    (None, 'count') counts rows. Returns a combined pandas frame sorted
    by keys."""

    def combine(frame: pd.DataFrame, sort: bool) -> pd.DataFrame:
        g = frame.groupby(keys, sort=sort, dropna=False)
        return pd.DataFrame(
            {c: _agg(g, c, _COMBINE[op]) for c, (_, op) in aggs.items()}
        ).reset_index()

    def part(batch) -> pd.DataFrame:
        g = batch.to_pandas().groupby(keys, sort=False, dropna=False)
        return pd.DataFrame(
            {c: _agg(g, src, op) for c, (src, op) in aggs.items()}
        ).reset_index()

    out = fold(ds, part, lambda a, b: combine(pd.concat([a, b]), sort=False))
    if out is None:
        return pd.DataFrame(columns=[*keys, *aggs])
    return combine(out, sort=True)
